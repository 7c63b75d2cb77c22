"""The benchmark's own correctness gate, at smoke size, in-process.

Each perfbench workload is generated at a fixed seed, run through
``cli.main`` and checked as the benchmark checks every invocation: exit 0,
every expected output file present and the oracle checks passed.
"""

import pytest

from lossdiag import cli
from perfbench import run, workspace

WORKLOADS = run.workloads(smoke=True)


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
