"""Mutation gate: swap one comparison or boolean operator at a time in ``src/``
and run the tier-1 tests against each mutant.

    python tools/mutants.py    # every site; exit 1 on a survivor not allowed

Each mutant swaps one operator of ``src/lex2vec``: ``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``in``/``not in``, ``is``/``is not`` or ``and``/``or``.  Sites come
in a fixed order: by module path, then by position in the file.  Mutants are
written into a temporary copy of ``src/`` and ``tests/``, never into the source
tree.  A mutant is killed when the tests fail, error, or run past the timeout;
one that passes survives.  A survivor passes the gate only when its id is in
``tools/mutants-allowed.txt`` with a reason; an allowed id that no longer
survives fails the gate too, so the list only holds equivalent mutants.

A mutant's id is ``module:function: source of the expression: old -> new``,
plus ``#N`` when the same text occurs more than once in that function; it does
not hold a line number, so it survives edits elsewhere in the file.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "lex2vec"
ALLOWED = Path(__file__).resolve().parent / "mutants-allowed.txt"
TIMEOUT_S = 300  # per mutant; tier-1 takes about 20 s, so only a hang reaches it

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.And: ast.Or, ast.Or: ast.And,
}
TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.And: "and", ast.Or: "or",
}


@dataclass(frozen=True)
class Mutant:
    path: Path  # relative to the source tree
    start: tuple[int, int]  # (line, column) of the operator's first token
    end: tuple[int, int]  # (line, column) just past its last token
    new: str
    id: str

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        (row, col), (end_row, end_col) = self.start, self.end
        head = "".join(lines[: row - 1]) + lines[row - 1][:col]
        tail = lines[end_row - 1][end_col:] + "".join(lines[end_row:])
        return head + self.new + tail


def _char_pos(lines: list[str], row: int, byte_col: int) -> tuple[int, int]:
    # The syntax tree counts columns in UTF-8 bytes, tokenize in characters.
    return row, len(lines[row - 1].encode("utf-8")[:byte_col].decode("utf-8"))


def _operator_tokens(tokens, after: tuple[int, int], before: tuple[int, int], words: list[str]):
    """The run of tokens spelling ``words`` between two positions."""
    gap = [t for t in tokens if after <= t.start and t.end <= before and t.string in words]
    if [t.string for t in gap] != words:
        raise ValueError(f"cannot find {' '.join(words)!r} between {after} and {before}")
    return gap[0].start, gap[-1].end


class _Sites(ast.NodeVisitor):
    """Every swappable operator of a module: its tokens' span, type, node and scope."""

    def __init__(self, source: str):
        self.lines = source.splitlines(keepends=True)
        self.tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        self.scope: list[str] = []
        self.found: list[tuple] = []  # (start, end, operator, node, scope) per site

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _site(self, node, left: ast.AST, right: ast.AST, op: type) -> None:
        after = _char_pos(self.lines, left.end_lineno, left.end_col_offset)
        before = _char_pos(self.lines, right.lineno, right.col_offset)
        start, end = _operator_tokens(self.tokens, after, before, TEXT[op].split())
        self.found.append((start, end, op, node, ".".join(self.scope) or "<module>"))

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if type(op) in SWAPS:
                self._site(node, operands[index], operands[index + 1], type(op))
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        for left, right in zip(node.values, node.values[1:]):
            self._site(node, left, right, type(node.op))
        self.generic_visit(node)


def mutants(root: Path = ROOT) -> list[Mutant]:
    """Every mutant of the package, in the fixed site order."""
    found = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        sites = _Sites(source)
        sites.visit(ast.parse(source, str(path)))
        seen: dict[str, int] = {}
        for start, end, op, node, scope in sorted(sites.found, key=lambda site: site[:2]):
            text = " ".join(ast.get_source_segment(source, node).split())
            key = f"{path.stem}:{scope}: {text}: {TEXT[op]} -> {TEXT[SWAPS[op]]}"
            seen[key] = seen.get(key, 0) + 1
            ident = key if seen[key] == 1 else f"{key} #{seen[key]}"
            found.append(Mutant(path.relative_to(root), start, end, TEXT[SWAPS[op]], ident))
    return found


def read_allowed(path: Path = ALLOWED) -> dict[str, str]:
    """Allowed survivors: an id line, then one or more ``#`` reason lines."""
    allowed: dict[str, str] = {}
    ident = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            if ident is None:
                continue  # the file's own heading
            allowed[ident] = (allowed[ident] + " " + line[1:].strip()).strip()
        elif line.strip():
            ident = line.strip()
            allowed[ident] = ""
        else:
            ident = None
    missing = [ident for ident, reason in allowed.items() if not reason]
    if missing:
        raise ValueError(f"allowed mutants without a reason: {missing}")
    return allowed


def run_tests(copy: Path, first: str) -> tuple[bool, str]:
    """Whether the tier-1 tests pass on the copy, and the end of their output; the
    mutated module's own test file runs first, so most mutants fail fast."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    own = copy / "tests" / f"test_{first}.py"
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *([str(own)] if own.exists() else []), str(copy / "tests")]
    try:
        result = subprocess.run(
            argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    return result.returncode == 0, "\n".join(result.stdout.splitlines()[-20:])


def _imports_from(copy: Path) -> bool:
    # An installed lex2vec (an editable install too) must not shadow the copy.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = [sys.executable, "-c", "import lex2vec; print(lex2vec.__file__)"]
    found = subprocess.run(probe, cwd=copy, env=env, capture_output=True, text=True).stdout
    return Path(found.strip()).resolve().is_relative_to(copy.resolve())


def main() -> int:
    todo = mutants()
    allowed = read_allowed()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch)
        for part in ("src", "tests", "pyproject.toml", "README.md"):  # the tests read README.md
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / part)
        if not _imports_from(copy):
            print("lex2vec is not imported from the copy; uninstall it first", file=sys.stderr)
            return 1
        passed, output = run_tests(copy, "")
        if not passed:
            print(f"the tests fail on the unmutated source:\n{output}", file=sys.stderr)
            return 1
        survivors = []
        for number, mutant in enumerate(todo, start=1):
            target = copy / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(mutant.apply(original), encoding="utf-8")
            started = time.perf_counter()
            try:
                survived, _ = run_tests(copy, mutant.path.stem)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = "SURVIVED" if survived else "killed"
            print(f"[{number}/{len(todo)}] {verdict} ({time.perf_counter() - started:.0f} s) "
                  f"{mutant.id}", flush=True)
            if survived:
                survivors.append(mutant.id)

    ran = {m.id for m in todo}
    unexpected = [ident for ident in survivors if ident not in allowed]
    stale = [ident for ident in allowed if ident in ran and ident not in survivors]
    unknown = [ident for ident in allowed if ident not in ran]
    print(f"{len(todo)} mutants, {len(survivors)} survived, {len(survivors) - len(unexpected)} "
          "of them allowed as equivalent")
    for title, idents in (("survived, not allowed", unexpected),
                          ("allowed, but killed", stale),
                          ("allowed, but no such site", unknown)):
        for ident in idents:
            print(f"{title}: {ident}")
    return 1 if unexpected or stale or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
