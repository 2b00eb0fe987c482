"""perfbench's self-check passes on this tree.  Its tracer looks up every name
in `perfbench/spans.TRACED`, so deleting from src/ a function that the tracer
still names fails here."""

from pathlib import Path

from conftest import run_python

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_benchmark_self_check():
    run = run_python(str(RUN), "--quick")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "# self-check passed"
