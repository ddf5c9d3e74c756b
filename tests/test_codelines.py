"""tools/codelines.py counts the lines that hold code: not blank, not only a
comment, and outside every module, class and function docstring."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "codelines.py")
_spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

SOURCE = '''\
"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """A class docstring."""

    def area(self, w, h):
        """A function
        docstring."""
        return math.prod(
            (w,
             h),  # the call's lines all count
        )


NOTE = """a string that is
no docstring"""
'''


def test_a_source_counts_its_code_lines_only():
    # import, class, def, the call's four lines and the two-line NOTE
    assert codelines.code_lines(SOURCE) == 9


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    paths[0].write_text(SOURCE)
    paths[1].write_text("x = 1\n\n# done\n")
    assert codelines.main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out == f"9 {paths[0]}\n1 {paths[1]}\n10 total\n"
