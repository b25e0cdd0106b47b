import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    """The README's `>>>` examples print what they show."""
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted > 0 and result.failed == 0


def test_layout_has_one_row_per_module():
    """README's Layout table names each module of the package once."""
    table = README.read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `connsum\.(\w+)` \|", table, re.M)
    package = README.parent / "src" / "connsum"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(rows) == sorted(modules)
