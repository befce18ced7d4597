import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_tour_runs_as_written(capsys):
    """The README's "Python quick tour" block, executed verbatim."""
    section = README.read_text().split("## Python quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    converged, final_j = capsys.readouterr().out.split()
    assert converged in ("True", "False") and 0.0 <= float(final_j) <= 1.0
