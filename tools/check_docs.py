#!/usr/bin/env python3
"""Documentation consistency checks, run by .github/workflows/docs.yml.

1. Every intra-repo markdown link in tracked *.md files resolves to an
   existing file (external http(s)/mailto links and pure anchors are
   skipped; an optional #fragment is stripped before checking).
2. docs/ARCHITECTURE.md mentions every component directory under src/
   (a directory guide that silently omits a component goes stale first).
3. Every metric family and error-code name docs/QOS.md commits to in
   backticks (tenant_*_total counters, the Backpressure code, ...) exists
   verbatim in the source tree — placeholder segments like `<id>` are
   split out and the literal fragments around them are grepped for, so
   renaming a counter in src/ without updating the QoS contract fails CI.
4. Every backticked C++ name in docs/*.md exists in src/: a CamelCase
   type (`RingQueue`) or a qualified name (`Fabric::messages_delivered`,
   `margo::Instance::forward()`), each of whose `::` parts must appear as
   an identifier in a src/ .cpp/.hpp file. Deleting a class or member
   without updating the docs that describe it fails CI.

Exits non-zero listing every violation.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — good enough for the hand-written markdown in this repo;
# skips fenced code blocks so JSON/C++ snippets can't produce false links.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def tracked_markdown():
    # -c -o --exclude-standard: tracked plus new-but-not-ignored files, so
    # a doc added in the same change is checked before it is ever staged.
    out = subprocess.run(
        ["git", "ls-files", "-c", "-o", "--exclude-standard", "*.md"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout
    # Skip index entries whose file is gone (staged deletions).
    return [REPO / line for line in out.splitlines()
            if line and (REPO / line).exists()]


def prose_lines(path):
    """(lineno, line) for every line outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def iter_links(path):
    for lineno, line in prose_lines(path):
        for m in LINK_RE.finditer(line):
            yield lineno, m.group(1)


def check_links(md_files):
    errors = []
    for path in md_files:
        for lineno, target in iter_links(path):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                rel = path.relative_to(REPO)
                errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def check_architecture_mentions_every_component():
    doc = REPO / "docs" / "ARCHITECTURE.md"
    if not doc.exists():
        return ["docs/ARCHITECTURE.md is missing"]
    text = doc.read_text()
    errors = []
    for entry in sorted((REPO / "src").iterdir()):
        if not entry.is_dir():
            continue
        if f"src/{entry.name}/" not in text:
            errors.append(
                f"docs/ARCHITECTURE.md: no mention of src/{entry.name}/")
    return errors


# Backticked names in QOS.md that must exist in src/: metric families
# (snake_case ending in a unit or _total) and error-code identifiers.
QOS_METRIC_RE = re.compile(r"`(tenant_[A-Za-z0-9_<>]*_total)`")
QOS_ERROR_RE = re.compile(r"`(Backpressure|backpressure)`")


def source_blob():
    sources = []
    for pattern in ("*.cpp", "*.hpp"):
        sources.extend((REPO / "src").rglob(pattern))
    return "\n".join(p.read_text() for p in sources)


def check_qos_names_exist_in_source():
    doc = REPO / "docs" / "QOS.md"
    if not doc.exists():
        return ["docs/QOS.md is missing"]
    text = doc.read_text()

    names = set(QOS_METRIC_RE.findall(text)) | set(QOS_ERROR_RE.findall(text))
    if not names:
        return ["docs/QOS.md: no backticked metric/error names found "
                "(the QoS contract must name its observables)"]

    blob = source_blob()
    errors = []
    for name in sorted(names):
        # `tenant_<id>_ops_total` documents a family: every literal
        # fragment around the <...> placeholders must appear in source
        # (the code builds the name by concatenating those fragments).
        fragments = [f for f in re.split(r"<[^>]*>", name) if f]
        missing = [f for f in fragments if f not in blob]
        if missing:
            errors.append(
                f"docs/QOS.md: `{name}` not found in src/ "
                f"(missing fragment(s): {', '.join(missing)})")
    return errors


# A whole backticked span that is a C++ name: a CamelCase type with at
# least two humps, or a `::`-qualified name, optionally called with `()`.
CAMEL_TYPE_RE = re.compile(r"^[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+$")
QUALIFIED_RE = re.compile(r"^(?:[A-Za-z_]\w*::)+~?[A-Za-z_]\w*(?:\(\))?$")
BACKTICK_RE = re.compile(r"`([^`]+)`")


def check_doc_names_exist_in_source():
    identifiers = set(re.findall(r"[A-Za-z_]\w*", source_blob()))
    errors = []
    for path in sorted((REPO / "docs").glob("*.md")):
        rel = path.relative_to(REPO)
        for lineno, line in prose_lines(path):
            for span in BACKTICK_RE.findall(line):
                if not (CAMEL_TYPE_RE.match(span) or QUALIFIED_RE.match(span)):
                    continue
                parts = re.findall(r"[A-Za-z_]\w*", span)
                missing = [p for p in parts if p not in identifiers]
                if missing:
                    errors.append(
                        f"{rel}:{lineno}: `{span}` not found in src/ "
                        f"(missing: {', '.join(missing)})")
    return errors


def main():
    errors = check_links(tracked_markdown())
    errors += check_architecture_mentions_every_component()
    errors += check_qos_names_exist_in_source()
    errors += check_doc_names_exist_in_source()
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"\n{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    print("docs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
