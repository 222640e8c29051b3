"""``code_lines`` counts the lines of a module that hold code: not its
docstrings, comments or blank lines, and each line of a statement that
spans lines once."""

import code_lines

SOURCE = '''"""A module docstring
on two lines."""

# a comment line
def f(a,
      b):
    """A function's docstring."""
    x = 1  # a comment after code

    return (a +
            b + x)


TEXT = """not a docstring:
two code lines"""
'''


def test_code_lines_of_a_source():
    # def f(a, / b): / x = 1 / return (a + / b + x) / TEXT = ... / two code lines
    assert code_lines.code_lines(SOURCE) == 7


def test_each_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, "utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", "utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", "utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module                lines   code",
        "a.py                     15      7",
        "b.py                      2      1",
        "total                    17      8",
    ]
