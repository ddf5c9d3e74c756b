"""Operator-flip and guard mutation check for one source file.

Each comparison operator in the file is flipped once to its twin: the
boundary twins < and <=, > and >=, and the negations == and !=, in and
not in, is and is not. So is each & and | of a binary operation or an
augmented assignment, to the other: the array code writes its logical
and/or that way (collided = alongside & ..., done &= ~leave). Annotations
are skipped: under `from __future__ import annotations` an `X | None` is
never evaluated. Then each guard's count, a call of `count` or
`count_nonzero` (how many entries take a rarely taken branch), is replaced
once by 0, so that the guard always takes the fast path, and once by 1, so
that it never does. A "never fast" mutant runs the guarded branch where no
entry takes it, which changes no value by design: it survives unless a test
pins the fast path itself. For every mutant a copy of the repository's
src/, tests/, configs/, tools/ and bench/ is made under a temporary
directory (the edge-grid digest test runs tools/digests.py, which reads
bench/inputs.py), the mutant replaces the file there, and the kinematics,
guard, metrics, risk, model, engine, config, report, CLI, ingest, writer
and golden tests run against it.
A mutant the tests still pass is a survivor: a decision boundary or a
guarded branch that no test pins.

    python tools/mutate_operators.py src/cutinsim/safety_models.py

prints one line per mutant and a final `mutants N survivors M` line, and
exits 1 when any mutant survives. Run it from the repository root; the
working tree is never modified.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
TESTS = ("tests/test_kinematics.py", "tests/test_guards.py", "tests/test_metrics.py",
         "tests/test_risk.py", "tests/test_safety_models.py", "tests/test_engine.py",
         "tests/test_config.py", "tests/test_reports.py", "tests/test_cli.py",
         "tests/test_cli_one_process.py", "tests/test_ingest.py", "tests/test_write_lines.py",
         "tests/test_golden.py", "tests/test_golden_digests.py", "tests/test_golden_ingest.py")
# a guard's count, and the constants it is replaced by
COUNTS = ("count", "count_nonzero")
GUARD_CONSTANTS = ((0, "always fast"), (1, "never fast"))
COPIED = ("src", "tests", "configs", "tools", "bench")
TIMEOUT_S = 600.0  # a mutant's test run that takes longer counts as killed


def _annotations(tree: ast.AST) -> set[int]:
    """The ids of every node inside an annotation. Under `from __future__
    import annotations` none is evaluated, so `str | None` is no logic."""
    roots = [
        root
        for node in ast.walk(tree)
        for root in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if root is not None
    ]
    return {id(node) for root in roots for node in ast.walk(root)}


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every flippable operator outside annotations, in source order:
    (comparison, operator index), or (binary operation or augmented
    assignment, None)."""
    skip = _annotations(tree)
    sites: list[tuple[ast.AST, int | None]] = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            sites += [(node, k) for k, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in FLIPS:
            sites.append((node, None))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


def _called(call: ast.Call) -> str | None:
    """The name of the function a call calls, whatever it is called on."""
    return getattr(call.func, "attr", None) or getattr(call.func, "id", None)


def _counts(tree: ast.AST) -> list[ast.Call]:
    """Every guard's count call, in source order."""
    calls = [
        node for node in ast.walk(tree) if isinstance(node, ast.Call) and _called(node) in COUNTS
    ]
    return sorted(calls, key=lambda node: (node.lineno, node.col_offset))


class _Replace(ast.NodeTransformer):
    """Replaces one node of a tree by another."""

    def __init__(self, old: ast.AST, new: ast.AST) -> None:
        self.old, self.new = old, new

    def visit(self, node: ast.AST) -> ast.AST:
        return self.new if node is self.old else self.generic_visit(node)


def mutants(source: str):
    """(line, description, mutated source) for each flippable operator, then
    for each guard's count and each of GUARD_CONSTANTS."""
    for i in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)  # a fresh tree per mutant, so flips never accumulate
        node, k = _sites(tree)[i]
        old = type(node.op if k is None else node.ops[k])
        new = FLIPS[old]
        if k is None:
            node.op = new()
        else:
            node.ops[k] = new()
        yield node.lineno, f"{old.__name__} -> {new.__name__}", ast.unparse(tree)
    for i in range(len(_counts(ast.parse(source)))):
        for value, path in GUARD_CONSTANTS:
            tree = ast.parse(source)
            call = _counts(tree)[i]
            mutated = _Replace(call, ast.Constant(value)).visit(tree)
            yield call.lineno, f"{_called(call)} -> {value} ({path})", ast.unparse(mutated)


def run_tests(root: str) -> bool:
    """True when the tests pass in the copy at root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *TESTS]
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path", help="the file to mutate, relative to the repository root")
    args = parser.parse_args(argv)
    with open(args.path) as fh:
        source = fh.read()
    survivors = total = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as root:
        for name in COPIED:
            shutil.copytree(name, os.path.join(root, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".bench_out"))
        target = os.path.join(root, args.path)
        if not run_tests(root):
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 2
        for line, flip, mutated in mutants(source):
            with open(target, "w") as fh:
                fh.write(mutated)
            killed = not run_tests(root)
            total += 1
            survivors += not killed
            print(f"{args.path}:{line} {flip} {'killed' if killed else 'SURVIVED'}", flush=True)
    print(f"mutants {total} survivors {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
