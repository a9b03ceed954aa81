"""The docs name what exists, point at sections that exist, and stay small.

Paths: a backticked word with a ``/`` is a path, resolved from the
repository root, ``src/`` or ``src/repro/`` (a ``::name`` suffix is
dropped, a ``*`` globs); a bare ``*.py`` name must be some file's
basename.  Words inside a backticked command are checked one by one.
What the docs name that is not a repository path -- a directory the
program writes, an abbreviation, another project -- is listed in
``NOT_REPOSITORY_PATHS``.

Section pointers: ``DESIGN.md, "<title>"`` (the comma is optional, the
title may wrap) must match the start of a ``##`` or ``###`` heading of
the file it names.  A pointer by PR number (``EXPERIMENTS.md PR 48``)
names no section; the ledger's rows are found by their PR under the
ledger's own title.  Pointers in the code's docstrings and comments
(``CODE_DIRS``) are held to the same rule.

Size: DESIGN.md and EXPERIMENTS.md are read at every change, so each
has a byte budget (``BUDGET``), and so does each CHANGES.md entry from
PR 56 on (``ENTRY_BUDGET``; git keeps the long form).
"""

import glob
import os
import re

import pytest

REPO = __file__.rsplit("/tests/", 1)[0]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
ROOTS = ("", "src", "src/repro")
BUDGET = {"DESIGN.md": 60_000, "EXPERIMENTS.md": 50_000}
ENTRY_BUDGET, FIRST_BUDGETED_PR = 1_500, 56
CODE_DIRS = ("src", "benchmarks", "examples")

NOT_REPOSITORY_PATHS = {
    "_rows_copy/",  # written inside a saved index
    "_data/",  # the same, by an older layout
    "checkpoint-<epoch>/",  # written inside a checkpoint directory
    "L/S",  # long / short
    "IndexedSpatialRDD.save/load",
    "dbis-ilm/spatialbm",  # another project's repository
}

_PATH = re.compile(r"[\w.*<>-]+(/[\w.*<>-]*)+|[\w-]+\.py")
_SPAN = re.compile(r"`([^`\n]+)`")
_POINTER = re.compile(
    r"\b((?:README|DESIGN|EXPERIMENTS)\.md),?\s+(?:\"([^\"]+)\"|(PR\s+\d+))"
)
_HEADING = re.compile(r"^#{2,3} (.+)$", re.MULTILINE)


def read(doc):
    with open(os.path.join(REPO, doc)) as f:
        return f.read()


def named_paths(doc):
    """The path-like words of *doc*'s backticked spans, ``::`` dropped."""
    words = {word for span in _SPAN.findall(read(doc)) for word in span.split()}
    return sorted(
        {
            word
            for word in (w.split("::")[0] for w in words)
            if _PATH.fullmatch(word) and word not in NOT_REPOSITORY_PATHS
        }
    )


def basenames():
    names = set()
    for _top, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if not d.startswith(".") and d != "__pycache__"]
        names.update(files)
    return names


def exists(path):
    return any(glob.glob(os.path.join(REPO, root, path)) for root in ROOTS)


def dangling_pointers(text, headings_of):
    """The pointers in *text* that match no heading of the file they name."""
    dangling = []
    for target, title, by_number in _POINTER.findall(text):
        title = " ".join(title.split())
        if by_number or not any(h.startswith(title) for h in headings_of(target)):
            pointer = title or " ".join(by_number.split())
            dangling.append(f"{target}: {pointer}")
    return dangling


def headings(doc):
    return [" ".join(h.split()) for h in _HEADING.findall(read(doc))]


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_path_exists(doc):
    files = basenames()
    missing = [
        path
        for path in named_paths(doc)
        if not (exists(path) if "/" in path else path in files)
    ]
    assert missing == [], f"{doc} names paths the repository does not have"


def test_the_check_sees_paths():
    paths = named_paths("DESIGN.md")
    assert "bench/layers.py" in paths and "rtree3d.py" in paths
    assert not exists("index/no_such_module.py")


@pytest.mark.parametrize("doc", DOCS)
def test_every_section_pointer_names_a_heading(doc):
    assert dangling_pointers(read(doc), headings) == []


def test_every_section_pointer_in_the_code_names_a_heading():
    dangling = []
    for top in CODE_DIRS:
        pattern = os.path.join(REPO, top, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path) as f:
                found = dangling_pointers(f.read(), headings)
            dangling += [f"{os.path.relpath(path, REPO)}: {p}" for p in found]
    assert dangling == []


def test_the_pointer_check_sees_pointers():
    text = (
        'see DESIGN.md, "Fault\n  model" and EXPERIMENTS.md "Ledger", '
        'but not EXPERIMENTS.md, "No such section" or DESIGN.md PR 7'
    )
    known = {"DESIGN.md": ["Fault model (retry)"], "EXPERIMENTS.md": ["Ledger"]}
    assert dangling_pointers(text, known.get) == [
        "EXPERIMENTS.md: No such section",
        "DESIGN.md: PR 7",
    ]


@pytest.mark.parametrize("doc", sorted(BUDGET))
def test_doc_stays_within_its_size_budget(doc):
    size = os.path.getsize(os.path.join(REPO, doc))
    assert size <= BUDGET[doc], f"{doc} is {size} bytes, budget {BUDGET[doc]}"


def test_each_changes_entry_stays_within_its_budget():
    with open(os.path.join(REPO, "CHANGES.md"), encoding="utf-8") as f:
        entries = [
            line.rstrip("\n")
            for line in f
            if (number := re.match(r"PR (\d+):", line)) and int(number[1]) >= FIRST_BUDGETED_PR
        ]
    assert entries, f"no CHANGES.md entry from PR {FIRST_BUDGETED_PR} on"
    for entry in entries:
        size = len(entry.encode())
        assert size <= ENTRY_BUDGET, f"{entry[:40]}... is {size} bytes, budget {ENTRY_BUDGET}"
