import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_count.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts its line


# a comment line
def area(r):
    """Docstring of a function."""
    return math.pi * r ** 2


class Shape:
    """Docstring of a class."""

    LABEL = """a multi-line string
that is not a docstring"""

    def __init__(self):
        "a one-line docstring"
        x = (1,
             2)
        "a string statement after the first is not a docstring"
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_count", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_the_lines_that_carry_tokens():
    # import, def area, return, class Shape, the two lines of LABEL, def
    # __init__, the two lines of x and the last string statement
    assert load_script().code_lines(SOURCE) == 10


def test_sums_the_python_files_under_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    script = load_script()
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "11\n"
    assert script.main([]) == 1
