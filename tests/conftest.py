import pytest

from helpers import DEMO_FLAGS
from lossdiag.cli import main


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory):
    """One small distill-demo run shared by the CLI tests.

    Deliberately tiny (short corpus, few steps): these tests check wiring
    and byte-level determinism, not the dose-response physics.
    """
    out = tmp_path_factory.mktemp("demo")
    rc = main(["distill-demo", *DEMO_FLAGS, "--out", str(out / "dose.csv")])
    assert rc == 0
    return out
