#!/usr/bin/env python3
"""Repo-invariant lint: AST-level checks CI runs blocking.

Five invariants that ordinary linters cannot express:

1. **Error wire contract** — every ``GCoreError`` subclass in
   ``src/repro/errors.py`` and every ``ApiError`` subclass in
   ``src/repro/server/protocol.py`` must assign both ``code`` and
   ``http_status`` in its own class body. The pair is the HTTP error
   envelope's stable contract (``docs/http-api.md``); inheriting one
   silently is how codes drift.
2. **Fuzz corpus integrity** — every JSON under ``tests/fuzz/corpus/``
   must load as a counterexample, its query must parse as G-CORE, and
   replaying it against the fixed engine must come back clean (corpus
   entries record *fixed* bugs — see ``docs/fuzzing.md``).
3. **Writes in O(delta)** — ``src/repro/model/delta.py`` reads no
   whole-graph copy accessor (``property_map()``, ``label_map()``,
   ``.rho``, ``.delta``): each copies or deep-copies every object, which
   is what a write must not pay for.
4. **Finders per graph epoch** — nothing under ``src/repro/eval/`` calls
   ``PathFinder(`` except the epoch accessor ``match.path_finder``: a
   finder built anywhere else recomputes its move memo on every request
   (and one cached anywhere else can outlive its graph epoch).
5. **A ``src/`` line record** — the lines of every ``*.py`` file under
   ``src/`` stay at or below ``SRC_LINE_RECORD``. A change that grows
   ``src/`` past it updates the number here and says why in
   CHANGES.md; one that shrinks it may lower the number.

Exit status: 0 clean, 1 violations (one per line on stdout).

Usage::

    python tools/lint_repo.py [--root PATH]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

ERROR_HIERARCHIES = {
    Path("src/repro/errors.py"): "GCoreError",
    Path("src/repro/server/protocol.py"): "ApiError",
}

FUZZ_CORPUS = Path("tests/fuzz/corpus")

DELTA_MODULE = Path("src/repro/model/delta.py")
WHOLE_GRAPH_COPIES = ("property_map", "label_map", "rho", "delta")

EVAL_PACKAGE = Path("src/repro/eval")
#: (module under EVAL_PACKAGE, function) allowed to construct a PathFinder.
FINDER_ACCESSOR = ("match.py", "path_finder")

SRC_DIR = Path("src")
#: The recorded ``src/`` line count (invariant 5).
SRC_LINE_RECORD = 21556


def check_error_contract(root: Path) -> List[str]:
    """Invariant 1: code + http_status in every error class body."""
    problems: List[str] = []
    for rel_path, base_name in ERROR_HIERARCHIES.items():
        path = root / rel_path
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }

        def in_hierarchy(name: str, seen: Set[str]) -> bool:
            if name == base_name:
                return True
            node = classes.get(name)
            if node is None or name in seen:
                return False
            seen.add(name)
            return any(
                in_hierarchy(b.id, seen)
                for b in node.bases
                if isinstance(b, ast.Name)
            )

        for name, node in sorted(classes.items()):
            if not in_hierarchy(name, set()):
                continue
            assigned = {
                target.id
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                for target in stmt.targets
                if isinstance(target, ast.Name)
            }
            assigned |= {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
            for required in ("code", "http_status"):
                if required not in assigned:
                    problems.append(
                        f"{rel_path}:{node.lineno}: class {name} does not "
                        f"assign {required!r} in its own body (error "
                        f"envelope contract)"
                    )
    return problems


def check_fuzz_corpus(root: Path) -> List[str]:
    """Invariant 2: corpus counterexamples load, parse, and replay clean."""
    corpus = root / FUZZ_CORPUS
    problems: List[str] = []
    if not corpus.is_dir():
        return [f"{FUZZ_CORPUS}: corpus directory missing"]
    entries = sorted(corpus.glob("*.json"))
    if not entries:
        return [f"{FUZZ_CORPUS}: corpus is empty"]
    # Prefer an already-importable repro (the test suite runs with
    # PYTHONPATH=src); fall back to the root being linted, as in the CI
    # lint-repo job, which sets no PYTHONPATH.
    try:
        from repro.fuzz import (
            build_engine,
            load_counterexample,
            replay_counterexample,
        )
    except ImportError:
        sys.path.insert(0, str((root / "src").resolve()))
        from repro.fuzz import (
            build_engine,
            load_counterexample,
            replay_counterexample,
        )

    engine = build_engine()
    for path in entries:
        rel = FUZZ_CORPUS / path.name
        try:
            entry = load_counterexample(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{rel}: not a loadable counterexample: {exc}")
            continue
        try:
            engine.parse(entry.query)
        except Exception as exc:
            problems.append(f"{rel}: query does not parse: {exc}")
            continue
        fresh = replay_counterexample(entry, engine=engine)
        if fresh is not None:
            problems.append(
                f"{rel}: replay diverges again (kind {fresh.kind}) — "
                f"corpus entries must record fixed bugs"
            )
    return problems


def check_delta_copies(root: Path) -> List[str]:
    """Invariant 3: the write path copies no whole graph."""
    path = root / DELTA_MODULE
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        f"{DELTA_MODULE}:{node.lineno}: reads the whole-graph copy "
        f"accessor .{node.attr} (writes must cost O(delta))"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in WHOLE_GRAPH_COPIES
    ]


def check_finder_construction(root: Path) -> List[str]:
    """Invariant 4: eval code takes its finders from the epoch accessor."""
    problems: List[str] = []
    for path in sorted((root / EVAL_PACKAGE).rglob("*.py")):
        rel = path.relative_to(root)
        module = str(path.relative_to(root / EVAL_PACKAGE))

        def visit(node: ast.AST, functions: Tuple[str, ...]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions += (node.name,)
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                allowed = module == FINDER_ACCESSOR[0] and FINDER_ACCESSOR[1] in functions
                if name == "PathFinder" and not allowed:
                    problems.append(
                        f"{rel}:{node.lineno}: calls PathFinder( outside "
                        f"the epoch accessor match.path_finder (finders "
                        f"live with the graph epoch)"
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, functions)

        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return problems


def check_src_lines(root: Path) -> List[str]:
    """Invariant 5: ``src/`` grows only on the record."""
    count = sum(path.read_bytes().count(b"\n")
                for path in (root / SRC_DIR).rglob("*.py"))
    if count <= SRC_LINE_RECORD:
        return []
    return [
        f"{SRC_DIR}: {count} lines, over the record of {SRC_LINE_RECORD}: "
        f"set SRC_LINE_RECORD in tools/lint_repo.py to {count} and say "
        f"why src/ grew in CHANGES.md"
    ]


def run_lint(root: Path) -> List[str]:
    problems: List[str] = []
    problems += check_error_contract(root)
    problems += check_fuzz_corpus(root)
    problems += check_delta_copies(root)
    problems += check_finder_construction(root)
    problems += check_src_lines(root)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=".", help="repository root (default: cwd)"
    )
    args = parser.parse_args(argv)
    problems = run_lint(Path(args.root))
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint_repo: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print("lint_repo: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
