"""The benchmark's own correctness gate, at smoke size, in-process.

Each perfbench workload is generated at a fixed seed, run through
``cli.main`` and checked as the benchmark checks every invocation: exit 0,
every expected output file present and the oracle checks passed, and its
output bytes pinned: a change to them fails here, not only in the
benchmark, and a change that means to alter them updates its pin.
"""

import pytest

from lossdiag import cli
from perfbench import run, workspace

WORKLOADS = run.workloads(smoke=True)

# run.digest of each workload's outputs at seed 4242.
SMOKE_DIGESTS = {
    "report-large": "e9a020e1f4c1ee9058f040a9e03570765994c099763fa3cb2f9fa51ca3f212a5",
    "sketch-stream": "76bcc9b59272347b0b5e42edf6333dda8d2aa4a8007eff093403287842fe30e4",
    "report-many": "c5ea00c8d863f47035a87760568c0e5afc3b00758a7fd31b02d1f458688c447d",
    "distill-default": "918208c3da062952e2f45e6968a1e66dea1f58cde4e7470e86e8d39fea36281d",
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_the_benchmark_checks(name, tmp_path, capsys):
    w = WORKLOADS[name]
    manifest = tmp_path / "ws" / "manifest.yaml"
    if w.spec is not None:
        manifest = workspace.generate(w.spec, 4242, manifest.parent)
    refs = w.references(manifest)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(w.argv(manifest, out)) == 0, capsys.readouterr().err
    assert [n for n in w.outputs if not (out / n).is_file()] == []
    assert w.check(out, refs) == []
    assert run.digest(out) == SMOKE_DIGESTS[name]
