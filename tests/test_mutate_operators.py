"""tools/mutate_operators.py makes one flip to its twin per comparison operator
and per & or | of a binary operation or augmented assignment, and replaces
each guard's count by 0 and by 1."""

import ast
import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "mutate_operators.py")
_spec = importlib.util.spec_from_file_location("mutate_operators", TOOL)
mutate_operators = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate_operators)

SOURCE = """\
def f(a, b, c, x, y: int | None) -> bool | None:
    if x in y and a is not None:
        return a < b <= c
    y &= x | c
    return x == y
"""


def test_each_mutant_flips_one_operator_of_the_source_to_its_boundary_twin():
    # the membership, the identity, the chain's two operators, the augmented
    # and, the or and the equality, in source order, each flipped alone; the
    # annotations' | are not flipped
    expected = [
        (2, "In -> NotIn", SOURCE.replace("x in y", "x not in y")),
        (2, "IsNot -> Is", SOURCE.replace("a is not None", "a is None")),
        (3, "Lt -> LtE", SOURCE.replace("a < b <= c", "a <= b <= c")),
        (3, "LtE -> Lt", SOURCE.replace("a < b <= c", "a < b < c")),
        (4, "BitAnd -> BitOr", SOURCE.replace("y &= x | c", "y |= x | c")),
        (4, "BitOr -> BitAnd", SOURCE.replace("y &= x | c", "y &= x & c")),
        (5, "Eq -> NotEq", SOURCE.replace("x == y", "x != y")),
    ]
    assert list(mutate_operators.mutants(SOURCE)) == [
        (line, flip, ast.unparse(ast.parse(source))) for line, flip, source in expected
    ]


GUARDED = """\
def f(xp, np, stopped, leave, a):
    if xp.count(stopped):
        a = xp.where(stopped, 0.0, a)
    if not np.count_nonzero(leave):
        return a
    return -a
"""


def test_each_guards_count_becomes_an_always_fast_and_a_never_fast_constant():
    # each count in source order, by 0 then by 1; the source has no
    # comparison, & or | to flip
    expected = [
        (2, "count -> 0 (always fast)", GUARDED.replace("xp.count(stopped)", "0")),
        (2, "count -> 1 (never fast)", GUARDED.replace("xp.count(stopped)", "1")),
        (4, "count_nonzero -> 0 (always fast)", GUARDED.replace("np.count_nonzero(leave)", "0")),
        (4, "count_nonzero -> 1 (never fast)", GUARDED.replace("np.count_nonzero(leave)", "1")),
    ]
    assert list(mutate_operators.mutants(GUARDED)) == [
        (line, flip, ast.unparse(ast.parse(source))) for line, flip, source in expected
    ]
