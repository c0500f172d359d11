import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    """The README's Library example runs as printed, its assert included."""
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "assert plan.num_classes == 4" in code
    exec(compile(code, str(README), "exec"), {})
