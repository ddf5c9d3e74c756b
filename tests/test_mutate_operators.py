"""tools/mutate_operators.py makes one boundary flip per comparison operator."""

import ast
import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "mutate_operators.py")
_spec = importlib.util.spec_from_file_location("mutate_operators", TOOL)
mutate_operators = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate_operators)

SOURCE = """\
def f(a, b, c, x, y):
    if x in y:
        return a < b <= c
    return x == y
"""


def test_each_mutant_flips_one_operator_of_the_source_to_its_boundary_twin():
    # the chain's two operators and the equality, in source order, each flipped
    # alone; `in` has no twin and is never flipped
    expected = [
        (3, "Lt -> LtE", SOURCE.replace("a < b <= c", "a <= b <= c")),
        (3, "LtE -> Lt", SOURCE.replace("a < b <= c", "a < b < c")),
        (4, "Eq -> NotEq", SOURCE.replace("x == y", "x != y")),
    ]
    assert list(mutate_operators.mutants(SOURCE)) == [
        (line, flip, ast.unparse(ast.parse(source))) for line, flip, source in expected
    ]
