#!/usr/bin/env python3
"""Documentation lint: intra-repo Markdown links and public docstrings.

Two checks, both designed to fail CI loudly rather than let docs rot:

1. **Markdown links** — every relative link in every ``*.md`` file must
   point at a file (or directory) that exists in the repository.
   External links (``http(s)://``, ``mailto:``) and pure in-page
   anchors (``#...``) are not checked; a ``path#fragment`` link is
   checked for the path part only.
2. **Docstrings** — every public module, class, function, and method in
   the packages listed in :data:`DOCSTRING_PACKAGES` must carry a
   docstring. "Public" means the name (and, for methods, the owning
   class) does not start with ``_``.

Usage::

    python tools/check_docs.py [repo-root]

Exits 0 when clean, 1 with one ``file:line: problem`` per finding.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Packages whose public API must be fully docstringed.
DOCSTRING_PACKAGES = (
    "src/repro/codec/encoder.py",
    "src/repro/codec/batch.py",
    "src/repro/obs",
    "src/repro/runtime",
    "src/repro/service",
    "src/repro/video/adversarial.py",
    "src/repro/analysis/scenarios.py",
)

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


def main(argv: List[str]) -> int:
    """Run both checks; print findings; exit non-zero on any."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    problems = check_markdown_links(root) + check_docstrings(root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} documentation problem(s)")
        return 1
    print("docs clean: links resolve, public API is docstringed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
