"""Seeded mutation sampling: how many small faults in one module do its tests catch?

Usage, from the root of a source checkout:

    python tools/mutants.py --module algebra --sites 30 --seed 11 \\
        --out MUTANTS.json tests/test_algebra.py tests/test_records.py

Every mutable site of ``src/fibquat/<module>.py`` is listed in a fixed AST
order: an arithmetic operator swapped (``+`` and ``-``, ``*`` to ``+``,
``//`` to ``*``, ...), a comparison swapped (``<`` and ``<=``, ``==`` and
``!=``, ``is`` and ``is not``, ...), ``and`` and ``or`` swapped, a unary
minus made plus, ``not`` doubled, and an integer literal n made n + 1.
``--sites`` of them are drawn with ``random.Random("<module>:<seed>")``;
``--every`` names top-level functions, or methods as ``Class.method``, whose
sites are all mutated, in addition to that many drawn from the rest of the
module.
For each, ``src/`` and ``tests/`` are copied to a temporary tree named
``fibquat-mutants-*``, the module is rewritten with that one mutation (by
``ast.unparse``), and the named tests run from the copy under ``pytest -x``
with ``PYTHONPATH`` pointing at its ``src/``; editing the checkout while a
sample runs changes nothing.  A mutant is killed when the tests fail or time
out.  The unmutated, unparsed copy must pass first.  pytest runs in a
session of its own, whose process group is killed on a timeout and when
this tool gets SIGTERM or SIGINT; the tree is removed on every exit.

The record for the module (module, sites, killed and each survivor's line,
mutation and source text) replaces any earlier record for it in ``--out``.
This is a slow, stdlib-only audit of the tests; pytest does not collect it.
"""

import argparse
import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# seconds allowed for the unmutated test run, a guard against a hung suite;
# each mutant then gets max(60, 10 x the time that run took)
BASELINE_TIMEOUT = 600.0

# each operator and the one it is swapped for; ``not x`` becomes ``not not x``
_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
    ast.USub: ast.UAdd, ast.Not: None,
}


def _swap_text(op):
    if isinstance(op, ast.Not):
        return "not x -> not not x"
    return f"{type(op).__name__} -> {_SWAPS[type(op)].__name__}"


def sites(tree):
    """Every mutable site in walk order, as (node, comparison index or None, description)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.UnaryOp)) and type(node.op) in _SWAPS:
            found.append((node, None, _swap_text(node.op)))
        elif isinstance(node, ast.Compare):
            found += [(node, i, _swap_text(op)) for i, op in enumerate(node.ops)
                      if type(op) in _SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, None, f"{node.value} -> {node.value + 1}"))
    return found


def mutate(source, index):
    """The module source with site ``index`` mutated, and that site's line and description."""
    tree = ast.parse(source)
    node, i, description = sites(tree)[index]
    if isinstance(node, ast.Compare):
        node.ops[i] = _SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node.op, ast.Not):
        node.operand = ast.UnaryOp(op=ast.Not(), operand=node.operand)
    else:
        node.op = _SWAPS[type(node.op)]()
    return ast.unparse(ast.fix_missing_locations(tree)), node.lineno, description


def run_tests(tree, tests, timeout):
    """True when the tests under ``tree`` pass against the package in its ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # Hypothesis's built-in ci profile: derandomized, no deadline and no example
    # database, so neither a slow run nor a replayed example counts as a kill
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-profile=ci", *tests]
    process = subprocess.Popen(command, cwd=tree, env=env, start_new_session=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return process.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        if process.poll() is None:  # timed out, or this tool is being stopped
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


def _functions(tree):
    """(name, node) of each top-level function, and of each method as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def sample(module, count, seed, tests, every=()):
    """Mutate every site of the functions named in ``every`` and ``count``
    seeded sites of the rest of ``fibquat.<module>``; returns the record."""
    path = ROOT / "src" / "fibquat" / f"{module}.py"
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    spans = [(node.lineno, node.end_lineno) for name, node in _functions(tree) if name in every]
    if len(spans) != len(set(every)):
        raise SystemExit(f"not every function of {sorted(every)} is in {module}")
    found = sites(tree)
    total = len(found)
    whole = [i for i, (node, _, _) in enumerate(found)
             if any(a <= node.lineno <= b for a, b in spans)]
    rest = sorted(set(range(total)) - set(whole))
    drawn = random.Random(f"{module}:{seed}").sample(rest, min(count, len(rest)))
    chosen = sorted(whole + drawn)
    with tempfile.TemporaryDirectory(prefix="fibquat-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)  # the same pytest settings
        target = tree / "src" / "fibquat" / f"{module}.py"
        target.write_text(ast.unparse(ast.parse(source)))
        start = time.perf_counter()
        if not run_tests(tree, tests, BASELINE_TIMEOUT):
            raise SystemExit(f"the tests fail on the unmutated copy of {module}")
        limit = max(60.0, 10 * (time.perf_counter() - start))
        survivors = []
        for index in chosen:
            text, line, description = mutate(source, index)
            target.write_text(text)
            if run_tests(tree, tests, limit):
                survivors.append({"line": line, "mutation": description,
                                  "source": lines[line - 1].strip()})
                print(f"  survived  {module}.py:{line}  {description}", file=sys.stderr)
    return {
        "module": module,
        "seed": seed,
        "sites": len(chosen),
        "sites_available": total,
        "every_site_of": sorted(every),
        "killed": len(chosen) - len(survivors),
        "tests": list(tests),
        "survivors": survivors,
    }


def _stop(signum, frame):
    # unwind, so the running pytest's group is killed and the tree removed
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", required=True, help="a module of src/fibquat, e.g. algebra")
    parser.add_argument("--sites", type=int, default=30, help="mutants to sample (default 30)")
    parser.add_argument("--seed", type=int, default=0, help="site-sample seed (default 0)")
    parser.add_argument("--every", nargs="+", default=[], metavar="FUNCTION",
                        help="top-level functions or Class.method names whose every site "
                        "is mutated as well")
    parser.add_argument("--out", type=Path, help="JSON file that keeps one record per module")
    parser.add_argument("tests", nargs="+", help="test files or node ids to run")
    args = parser.parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    record = sample(args.module, args.sites, args.seed, args.tests, args.every)
    print(json.dumps(record, indent=2))
    if args.out:
        records = json.loads(args.out.read_text()) if args.out.exists() else []
        records = [r for r in records if r["module"] != args.module] + [record]
        args.out.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
