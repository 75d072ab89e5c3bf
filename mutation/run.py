"""Mutation check for one source module, standard library only.

Each mutant flips one comparison operator of the module (< and <=, > and >=,
== and !=, and a membership test's in and not in) in a temporary copy of the
repository.  The module's own test files, tests/test_<module>.py, run first
with -x; a mutant that passes them runs the full suite.  A mutant is killed
when a run fails or takes longer than TIMEOUT seconds, and survives
otherwise.  Run from the root of a source checkout:

    python3 mutation/run.py src/bielliptic/screening.py

Prints one line per mutant and then killed/total; exits 1 when a mutant
survives.  The unmutated module's tests and the full suite must pass first,
or it exits 2.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
TIMEOUT = 300.0


def membership_gaps(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions, as (line, character column), between the
    two operands of each `in` or `not in` of a comparison: the `in` of a for
    loop or a comprehension's for clause is not one of these."""
    lines = source.splitlines()

    def at(line, byte_col):  # ast counts columns in UTF-8 bytes
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    gaps = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                if isinstance(op, (ast.In, ast.NotIn)):
                    left, right = operands[k], operands[k + 1]
                    gaps.append((at(left.end_lineno, left.end_col_offset),
                                 at(right.lineno, right.col_offset)))
    return gaps


def mutants(source: str):
    """(line, column, operator as written, flipped operator) for each
    comparison operator; tokens inside strings are not seen.  A `not in`
    written on one line is one operator and flips to `in`."""
    gaps = membership_gaps(source)
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in FLIPS:
            yield tok.start[0], tok.start[1], tok.string, FLIPS[tok.string]
        elif tok.type == tokenize.NAME and tok.string == "in" and any(
            start <= tok.start and tok.end <= end for start, end in gaps
        ):
            if previous.string == "not" and previous.start[0] == tok.start[0]:
                line, col = previous.start
                yield line, col, tok.line[col:tok.end[1]], "in"
            else:
                yield tok.start[0], tok.start[1], "in", "not in"
        previous = tok


def apply(source: str, line: int, col: int, op: str, flipped: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:col] + flipped + text[col + len(op):]
    return "".join(lines)


def enclosing_functions(source: str) -> dict[int, str]:
    """The innermost function or class name of each line."""
    names = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for line in range(node.lineno, node.end_lineno + 1):
                if line not in names or names[line][0] < node.lineno:
                    names[line] = (node.lineno, node.name)
    return {line: name for line, (_, name) in names.items()}


def passes(copy: Path, tests: list[str]) -> bool:
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # no bytecode: a mutant of the same size could otherwise load a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="source file, relative to the repository root")
    args = parser.parse_args(argv)
    root = Path.cwd()
    module = Path(args.module)
    tests = [f"tests/test_{module.stem}.py"]
    source = (root / module).read_text()
    where = enclosing_functions(source)
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=SKIP)
        target = copy / module
        # a test that fails already would count every survivor as killed
        for baseline in (tests, ["tests"]):
            if not passes(copy, baseline):
                print(f"the unmutated tree fails {' '.join(baseline)}", file=sys.stderr)
                return 2
        killed = total = 0
        for line, col, op, flipped in mutants(source):
            target.write_text(apply(source, line, col, op, flipped))
            alive = passes(copy, tests) and passes(copy, ["tests"])
            total += 1
            killed += not alive
            outcome = "survived" if alive else "killed"
            name = where.get(line, "<module>")
            print(f"{outcome}\t{module}:{line}\t{name}\t{op} -> {flipped}", flush=True)
        target.write_text(source)
    print(f"{module}: {killed}/{total} killed")
    return 0 if killed == total else 1


if __name__ == "__main__":
    sys.exit(main())
