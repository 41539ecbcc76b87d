"""Mutation probe: would any test notice if this line were wrong?

Makes one mutant at a time of every module of the package (DeMillo, Lipton
and Sayward 1978), of three kinds:

- a comparison swapped to its boundary or negated partner: `<` and `<=`,
  `>` and `>=`, `==` and `!=`, `is` and `is not`, `in` and `not in`;
- an `and` swapped with `or`, or the reverse;
- an `if` that has no `else` and whose body ends in `raise`, `return`,
  `continue` or `break`, replaced by `pass`.

Everything runs in temporary copies of the repository, one per worker; the
working tree is never written.  Each probed module is first round-tripped
through `ast.unparse`, and the tier-1 suite runs once unmutated: the tests
that fail then (criterion 4c) are the baseline.  A mutant is killed when
any other test fails or errors, or when its run passes the timeout;
otherwise it survives.  A mutant's run stops at the first failure beyond
the baseline's count, and runs the mutated module's own test file first.

Run from anywhere; it probes the repository it lives in:

    python3 tools/mutation_probe.py [--jobs 2]

It prints each survivor as `file:line: mutation`, then killed/total per
module.  Standard library only, besides the pytest the suite needs.  About
20-25 minutes on two workers.
"""
from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curiophys"

_SWAPS = {
    ast.Lt: (ast.LtE, "<", "<="),
    ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="),
    ast.GtE: (ast.Gt, ">=", ">"),
    ast.Eq: (ast.NotEq, "==", "!="),
    ast.NotEq: (ast.Eq, "!=", "=="),
    ast.Is: (ast.IsNot, "is", "is not"),
    ast.IsNot: (ast.Is, "is not", "is"),
    ast.In: (ast.NotIn, "in", "not in"),
    ast.NotIn: (ast.In, "not in", "in"),
}
_EXITS = (ast.Raise, ast.Return, ast.Continue, ast.Break)


def _is_guard(stmt: ast.stmt) -> bool:
    """An `if` with no `else` whose body ends by leaving its block."""
    return isinstance(stmt, ast.If) and not stmt.orelse and isinstance(stmt.body[-1], _EXITS)


def sites(tree: ast.AST) -> list:
    """Every mutation site of tree in a fixed order, as (line, mutation,
    apply), where apply() makes the mutation in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new, word, new_word = _SWAPS[type(op)]
                swap = partial(node.ops.__setitem__, i, new())
                out.append((node.lineno, f"`{word}` -> `{new_word}`", swap))
        elif isinstance(node, ast.BoolOp):
            word, new_word = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            swap = partial(setattr, node, "op", ast.Or() if word == "and" else ast.And())
            out.append((node.lineno, f"`{word}` -> `{new_word}`", swap))
        for _, value in ast.iter_fields(node):
            if not isinstance(value, list):
                continue
            for j, stmt in enumerate(value):
                if _is_guard(stmt):
                    drop = partial(value.__setitem__, j, ast.Pass())
                    out.append((stmt.lineno, "`if` -> `pass`", drop))
    return out


def mutant(source: str, k: int) -> str:
    tree = ast.parse(source)
    sites(tree)[k][2]()
    return ast.unparse(tree)


def _ignore(directory: str, names: list) -> list:
    skip = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}
    if os.path.basename(directory) == "bench":
        skip.add("out")
    return [name for name in names if name in skip]


def run_tests(copy: Path, first: str, maxfail: int, timeout: float):
    """Tier-1 in copy, first the named module's own test file; returns
    (exit code, failed or erroring test ids), or None on timeout."""
    tests = sorted((copy / "tests").glob("test_*.py"))
    own = [t for t in tests if t.name == f"test_{first}.py"]
    files = [str(t) for t in own + [t for t in tests if t not in own]]
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    if maxfail:
        cmd.append(f"--maxfail={maxfail}")
    if importlib.util.find_spec("hypothesis") is not None:
        cmd.append("--hypothesis-seed=0")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd + files, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M))
    return proc.returncode, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="parallel workers, capped at the CPU count")
    args = parser.parse_args(argv)
    jobs = max(1, min(args.jobs, os.cpu_count() or 1))

    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    plain = {m: ast.unparse(ast.parse(src)) for m, src in sources.items()}
    work = []  # (module, site index, line, mutation), by line within a module
    for module, source in sources.items():
        found = [(module, k, line, mutation)
                 for k, (line, mutation, _) in enumerate(sites(ast.parse(source)))]
        work += sorted(found, key=lambda item: item[2])

    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        base = Path(tmp) / "w0"
        shutil.copytree(ROOT, base, ignore=_ignore)
        for module, text in plain.items():
            (base / "src" / "curiophys" / f"{module}.py").write_text(text, encoding="utf-8")
        start = time.perf_counter()
        code, baseline = run_tests(base, "", 0, None)
        elapsed = time.perf_counter() - start
        if code not in (0, 1):
            print(f"unmutated tier-1 did not run (exit {code})", file=sys.stderr)
            return 2
        print(f"baseline: {len(baseline)} failing ({', '.join(sorted(baseline)) or 'none'}), "
              f"{elapsed:.0f} s; {len(work)} mutants on {jobs} workers", file=sys.stderr)
        timeout = 3 * elapsed + 30

        copies: queue.Queue = queue.Queue()
        copies.put(base)
        for w in range(1, jobs):
            copy = Path(tmp) / f"w{w}"
            shutil.copytree(base, copy, ignore=_ignore)
            copies.put(copy)

        def probe(item):
            module, k, _, _ = item
            copy = copies.get()
            target = copy / "src" / "curiophys" / f"{module}.py"
            try:
                target.write_text(mutant(sources[module], k), encoding="utf-8")
                outcome = run_tests(copy, module, len(baseline) + 1, timeout)
            finally:
                target.write_text(plain[module], encoding="utf-8")
                copies.put(copy)
            if outcome is None:
                return True
            code, failed = outcome
            return code not in (0, 1) or bool(failed - baseline)

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            killed = list(pool.map(probe, work))

    for (module, _, line, mutation), dead in zip(work, killed):
        if not dead:
            print(f"src/curiophys/{module}.py:{line}: {mutation}")
    for module in sources:
        outcomes = [dead for (m, *_), dead in zip(work, killed) if m == module]
        print(f"{module}: {sum(outcomes)}/{len(outcomes)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
