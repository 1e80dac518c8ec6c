#!/usr/bin/env python3
"""Documentation lint: Markdown links, public docstrings, knob tables.

Three checks, all designed to fail CI loudly rather than let docs rot:

1. **Markdown links** — every relative link in every ``*.md`` file must
   point at a file (or directory) that exists in the repository.
   External links (``http(s)://``, ``mailto:``) and pure in-page
   anchors (``#...``) are not checked; a ``path#fragment`` link is
   checked for the path part only.
2. **Docstrings** — every public module, class, function, and method in
   the packages listed in :data:`DOCSTRING_PACKAGES` must carry a
   docstring. "Public" means the name (and, for methods, the owning
   class) does not start with ``_``.
3. **Knob tables** — every knob in :data:`repro.knobs.KNOBS` has
   exactly one row in the canonical env table of docs/OBSERVABILITY.md,
   each row's default cell opens with the knob's default (``unset`` for
   None or off), and every ``REPRO_*`` row there or in docs/SERVICE.md's
   table is a declared knob or one of :data:`BENCH_ONLY_KNOBS`.

Usage::

    python tools/check_docs.py [repo-root]

Exits 0 when clean, 1 with one ``file:line: problem`` per finding.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Iterator, List, Tuple

# The knob table is stdlib-only, so this check needs no install.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.knobs import KNOBS  # noqa: E402

#: Packages whose public API must be fully docstringed.
DOCSTRING_PACKAGES = (
    "src/repro/codec/cabac.py",
    "src/repro/codec/decoder.py",
    "src/repro/codec/encoder.py",
    "src/repro/codec/entropy.py",
    "src/repro/codec/syntax.py",
    "src/repro/codec/batch.py",
    "src/repro/core/partition.py",
    "src/repro/core/pipeline.py",
    "src/repro/obs",
    "src/repro/runtime",
    "src/repro/service",
    "src/repro/video/adversarial.py",
    "src/repro/analysis/scenarios.py",
    "src/repro/knobs.py",
)

#: ``REPRO_*`` variables read only by benchmarks and tests, where they
#: are used; every other documented variable must be a declared knob.
BENCH_ONLY_KNOBS = ("REPRO_BENCH_SCALE", "REPRO_BENCH_WORKERS",
                    "REPRO_REQUIRE_SCALING", "REPRO_PRINT_DIGESTS")

#: The env tables checked against the knob table: (file, the heading
#: that opens the table). The first is the canonical one, which must
#: list every knob exactly once.
KNOB_TABLES = (
    ("docs/OBSERVABILITY.md", "## Environment variables (canonical table)"),
    ("docs/SERVICE.md", "## Environment variables"),
)

#: One env-table row: ``| `REPRO_X` | default cell | meaning |``.
_KNOB_ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \| ([^|]*) \|",
                       re.MULTILINE)

#: Directories never scanned for Markdown files.
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules",
             ".hypothesis"}

#: ``[text](target)`` — good enough for the plain links these docs use
#: (no reference-style links, no angle brackets in targets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Inline/fenced code spans, removed before link extraction so example
#: snippets like ``[0](x)`` in code blocks are not treated as links.
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_CODE = re.compile(r"`[^`]*`")


def iter_markdown(root: Path) -> Iterator[Path]:
    """Every tracked-looking Markdown file under ``root``."""
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            yield path


def check_markdown_links(root: Path) -> List[str]:
    """``file:line: broken link`` findings for the whole repo."""
    problems: List[str] = []
    for md_path in iter_markdown(root):
        text = md_path.read_text(encoding="utf-8")
        stripped = _CODE.sub("", _FENCE.sub("", text))
        # Recompute line numbers against the original text: find each
        # surviving link's first occurrence instead of tracking offsets.
        for target in _LINK.findall(stripped):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:        # pure in-page anchor
                continue
            resolved = (md_path.parent / path_part).resolve()
            if resolved.exists():
                continue
            line = 1 + text[:text.find(f"({target})")].count("\n")
            problems.append(
                f"{md_path.relative_to(root)}:{line}: broken link "
                f"-> {target}")
    return problems


def _missing_docstrings(py_path: Path) -> Iterator[Tuple[int, str]]:
    """(line, description) for each public def/class without a docstring."""
    tree = ast.parse(py_path.read_text(encoding="utf-8"))
    if ast.get_docstring(tree) is None:
        yield 1, "module has no docstring"

    def walk(node: ast.AST, owner_public: bool,
             prefix: str) -> Iterator[Tuple[int, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                public = owner_public and not child.name.startswith("_")
                qualname = f"{prefix}{child.name}"
                if public and ast.get_docstring(child) is None:
                    kind = ("class" if isinstance(child, ast.ClassDef)
                            else "function")
                    yield child.lineno, f"{kind} {qualname} has no docstring"
                yield from walk(child, public, f"{qualname}.")

    yield from walk(tree, True, "")


def check_docstrings(root: Path) -> List[str]:
    """``file:line: missing docstring`` findings for DOCSTRING_PACKAGES."""
    problems: List[str] = []
    for package in DOCSTRING_PACKAGES:
        package_path = root / package
        if package_path.is_file():
            paths = [package_path]
        elif package_path.is_dir():
            paths = sorted(package_path.rglob("*.py"))
        else:
            problems.append(f"{package}: package path missing")
            continue
        for py_path in paths:
            for line, description in _missing_docstrings(py_path):
                problems.append(
                    f"{py_path.relative_to(root)}:{line}: {description}")
    return problems


def documented_default(default: Any) -> str:
    """How the default cell of a knob's table row must open."""
    if default is None or default is False:
        return "unset"
    if default is True:
        return "`1`"
    if isinstance(default, float):
        return f"`{default:g}`"
    return f"`{default}`"


def check_knob_tables(root: Path) -> List[str]:
    """``file:line: problem`` findings for the env tables in
    :data:`KNOB_TABLES` against :data:`repro.knobs.KNOBS`."""
    defaults = {knob.name: knob.default for knob in KNOBS}
    problems: List[str] = []
    for table_index, (relpath, heading) in enumerate(KNOB_TABLES):
        text = (root / relpath).read_text(encoding="utf-8")
        start = text.find(heading + "\n")
        if start < 0:
            problems.append(f"{relpath}: no {heading!r} section")
            continue
        end = text.find("\n## ", start + len(heading))
        section = text[start:end if end >= 0 else len(text)]
        rows = Counter()
        for row in _KNOB_ROW.finditer(section):
            name, cell = row.group(1), row.group(2).strip()
            rows[name] += 1
            line = text.count("\n", 0, start + row.start()) + 1
            if name in defaults:
                expected = documented_default(defaults[name])
                if not cell.startswith(expected):
                    problems.append(
                        f"{relpath}:{line}: {name} default {cell!r} does "
                        f"not start with {expected!r}")
            elif name not in BENCH_ONLY_KNOBS:
                problems.append(
                    f"{relpath}:{line}: {name} is not a knob in "
                    f"repro.knobs.KNOBS")
        if table_index == 0:
            for name in defaults:
                if rows[name] != 1:
                    problems.append(
                        f"{relpath}: {name} has {rows[name]} rows in the "
                        f"canonical table, expected 1")
    return problems


def main(argv: List[str]) -> int:
    """Run all checks; print findings; exit non-zero on any."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    problems = (check_markdown_links(root) + check_docstrings(root)
                + check_knob_tables(root))
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} documentation problem(s)")
        return 1
    print("docs clean: links resolve, public API is docstringed, knob "
          "tables match repro.knobs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
