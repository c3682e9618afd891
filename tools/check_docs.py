#!/usr/bin/env python3
"""Documentation checks, run by `tests/test_docs.py` and the CI docs job.

1. **Link check**: every relative markdown link in README.md and
   docs/*.md must resolve to an existing file (anchors are stripped;
   absolute URLs and mailto: are skipped).
2. **Snippet check**: every fenced ```python block must be valid Python
   (a `compileall`-style syntax check; snippets are compiled, never
   executed).
3. **Cross-link check**: load-bearing edges in the doc graph must stay
   wired — e.g. the serving page must be reachable from README.md,
   architecture.md, cli.md and ci_mode.md, and must link back to the
   CLI page that documents its flags.  A doc restructure that orphans
   a page fails here, not in a reader's dead end.
4. **Path check**: every repo path named in inline code in README.md
   and docs/*.md must exist.  A repo path is a whitespace-separated
   token that starts with ``src/``, ``tests/``, ``tools/``,
   ``benchmarks/``, ``docs/`` or ``examples/``, or names a root file
   such as ``DESIGN.md``; a ``::test`` or ``:line`` suffix and a
   ``#anchor`` are dropped, and tokens with a ``*``, ``<``, ``>``,
   ``{`` or ``$`` (patterns and placeholders) are skipped.  Deleting a
   file without updating the pages that name it fails here.

Exit status 0 when clean; 1 with one line per problem otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — excluding images' leading "!" is unnecessary: image
# targets must exist just the same
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```(\w*)\s*$")
_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_PATH_PREFIXES = ("src/", "tests/", "tools/", "benchmarks/", "docs/",
                  "examples/")
# root files are named in capitals by convention (README.md,
# BENCHMARK.json); the extension list keeps `SibStatus.CORRECT` out
_ROOT_FILE = re.compile(r"^[A-Z][\w-]*\.(md|json|jsonl|toml)$")
_PATH_SUFFIX = re.compile(r"::|:\d|#")
_PLACEHOLDER = set("*<>{$")


def doc_files() -> list[Path]:
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


def check_links(path: Path) -> list[str]:
    problems = []
    for match in _LINK.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = (path.parent / rel).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO)}: broken link "
                            f"-> {target}")
    return problems


def python_snippets(path: Path):
    """Yield (first_line_number, source) for each ```python block."""
    lines = path.read_text().splitlines()
    block: list[str] | None = None
    start = 0
    for i, line in enumerate(lines, 1):
        fence = _FENCE.match(line.strip())
        if block is None:
            if fence and fence.group(1) == "python":
                block, start = [], i + 1
        elif line.strip().startswith("```"):
            yield start, "\n".join(block)
            block = None
        else:
            block.append(line)


def check_snippets(path: Path) -> list[str]:
    problems = []
    for lineno, src in python_snippets(path):
        try:
            compile(src, f"{path.relative_to(REPO)}:{lineno}", "exec")
        except SyntaxError as exc:
            problems.append(f"{path.relative_to(REPO)}:{lineno}: "
                            f"python snippet does not compile: {exc}")
    return problems


def check_paths(path: Path) -> list[str]:
    problems = []
    for match in _CODE_SPAN.finditer(path.read_text()):
        for token in match.group(1).split():
            if _PLACEHOLDER & set(token):
                continue
            rel = _PATH_SUFFIX.split(token, 1)[0]
            if (rel.startswith(_PATH_PREFIXES) or _ROOT_FILE.match(rel)) \
                    and not (REPO / rel).exists():
                problems.append(f"{path.relative_to(REPO)}: names a "
                                f"missing path `{token}`")
    return problems


# Load-bearing doc-graph edges: source file -> link targets it must
# carry (matched against resolved link paths, so "serving.md" and
# "docs/serving.md" both count).  Keep this list small — it is a contract
# for navigability, not an index of every link.
REQUIRED_LINKS: dict[str, list[str]] = {
    "README.md": ["docs/serving.md", "docs/ci_mode.md",
                  "docs/scenarios.md"],
    "docs/architecture.md": ["docs/serving.md", "docs/ci_mode.md",
                             "docs/scenarios.md"],
    "docs/serving.md": ["docs/cli.md"],
    "docs/cli.md": ["docs/serving.md", "docs/ci_mode.md",
                    "docs/scenarios.md"],
    "docs/scenarios.md": ["docs/architecture.md", "docs/cli.md",
                          "docs/ci_mode.md", "docs/testing.md"],
    "docs/ci_mode.md": ["docs/caching.md", "docs/cli.md",
                        "docs/architecture.md", "docs/serving.md"],
    "docs/caching.md": ["docs/ci_mode.md"],
    "docs/smt_architecture.md": ["docs/testing.md"],
    "docs/testing.md": ["docs/smt_architecture.md"],
}


def resolved_link_targets(path: Path) -> set[str]:
    """Repo-relative resolved targets of every relative link in *path*."""
    targets = set()
    for match in _LINK.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = (path.parent / rel).resolve()
        try:
            targets.add(str(resolved.relative_to(REPO)))
        except ValueError:
            continue
    return targets


def check_cross_links() -> list[str]:
    problems = []
    for source, required in REQUIRED_LINKS.items():
        path = REPO / source
        if not path.exists():
            problems.append(f"{source}: required doc is missing")
            continue
        have = resolved_link_targets(path)
        for target in required:
            if target not in have:
                problems.append(f"{source}: missing required cross-link "
                                f"-> {target}")
    return problems


def main() -> int:
    problems: list[str] = []
    for path in doc_files():
        problems += check_links(path)
        problems += check_snippets(path)
        problems += check_paths(path)
    problems += check_cross_links()
    for p in problems:
        print(p, file=sys.stderr)
    if not problems:
        n = len(doc_files())
        print(f"docs OK: {n} files, links resolve, snippets compile, "
              f"{sum(map(len, REQUIRED_LINKS.values()))} required "
              f"cross-links present, named paths exist")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
