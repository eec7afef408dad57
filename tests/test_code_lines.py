"""tools/code_lines.py: the code and docstring lines of each module and
their total."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

#: 10 code lines and 6 docstring lines: the module, class, method and
#: function docstrings are not code, the comment-only and blank lines are
#: neither, and the string bound to ``text`` and the continued sum are
#: two code lines each.
MODULE = '''"""A module docstring
on two lines."""

import os  # a comment after code


class Thing:
    """A class docstring."""

    # a comment-only line
    def method(self):
        """A method docstring
        on two lines."""
        text = """not a
docstring"""
        total = 1 + \\
            2
        return text, total


def helper():
    """A function docstring."""
    return os.sep
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_and_docstring_lines_and_their_total(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "one.py").write_text("# a comment\n\nx = 1\n", encoding="utf-8")
    assert tool.count(tmp_path / "pkg" / "mod.py") == (10, 6)
    assert tool.count(tmp_path / "pkg" / "one.py") == (1, 0)
    assert tool.main(["code_lines.py", str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "docstring"], ["mod.py", "10", "6"],
                    ["one.py", "1", "0"], ["total", "11", "6"]]
