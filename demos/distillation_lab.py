"""Truncated distillation in a model small enough to solve exactly.

Distilling from only the teacher's top-K tokens reshapes the student's
loss distribution in a characteristic way: most tokens get easier (the
kept mass is renormalized upward) while the discarded tail gets much
worse. The median improves as the mean degrades, and no amount of
training fixes that, because the converged student has the same bias.

A tabular world makes this checkable: the teacher is a bigram model, the
converged student for each K has a closed form, and gradient-descent
students can be compared to that floor directly.
"""

import numpy as np

from lossdiag import (
    LabConfig,
    converged_student,
    dose_response,
    kl,
    render,
    topk_renormalize,
)


def main() -> None:
    # Small enough to finish in about a second, big enough to show the effect.
    config = LabConfig(
        vocab=32, length=60_000, eval_length=40_000, ks=(2, 4, 8, "full"),
        steps=40_000,
    )
    result = dose_response(config)

    # One record per model: the teacher (K None), then per K its trained
    # student and its exactly solved oracle.
    records = {(c.k, c.family): c for c in result.checkpoints}
    teacher = records[None, "teacher"].summary
    print(f"teacher held-out CE: mean={teacher.mean:.4f} "
          f"median={teacher.value('median'):.4f} p95={teacher.value('p95'):.4f}")
    print()
    print(render.dose_table(result.checkpoints))

    # The dose-response signature: as K shrinks, the median drops below the
    # teacher's while the mean climbs above it. A selection rule that watches
    # the median would prefer the most truncated student here.
    for k in config.ks:
        s = records[k, "trained"].summary
        marker = "<- median better, mean worse" if (
            s.value("median") < teacher.value("median") and s.mean > teacher.mean) else ""
        print(f"K={k!s:>4}: mean {s.mean / teacher.mean:5.2f}x teacher, "
              f"median {s.value('median') / teacher.value('median'):5.2f}x {marker}")

    # Training is not the bottleneck: the trained student sits on the same
    # floor as the exactly solved one. Compare their rows in KL.
    print()
    for k in (2, "full"):
        student = records[k, "trained"].model.probs()
        oracle = records[k, "oracle"].model.probs()
        gaps = [kl(oracle[i], student[i]) for i in range(config.vocab)]
        print(f"K={k}: worst row KL(converged || trained) = {max(gaps):.2e} nats")

    # The converged student is just the teacher's rows through
    # topk_renormalize (with a tiny floor epsilon on the zeros), so the whole
    # effect is attributable to the truncation itself.
    teacher_model = records[None, "teacher"].model
    oracle2 = converged_student(teacher_model, 2, config.epsilon_q)
    row = teacher_model.probs()[0]
    print()
    print("teacher row 0, top 5:", np.round(np.sort(row)[::-1][:5], 4))
    print("top-2 renormalized:  ", np.round(np.sort(topk_renormalize(row, 2))[::-1][:5], 4))
    print("converged student:   ", np.round(np.sort(oracle2.probs()[0])[::-1][:5], 4))


# dose_response trains in spawned worker processes, which import this
# script; the guard keeps them from running the demo again.
if __name__ == "__main__":
    main()
