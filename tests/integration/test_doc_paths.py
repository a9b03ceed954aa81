"""Every repository path README.md and DESIGN.md name in backticks exists.

A backticked word with a ``/`` is a path, resolved from the repository
root, ``src/`` or ``src/repro/`` (a ``::name`` suffix is dropped, a
``*`` globs); a bare ``*.py`` name must be some file's basename.  Words
inside a backticked command are checked one by one.  What the docs name
that is not a repository path -- a directory the program writes, an
abbreviation, another project -- is listed in ``NOT_REPOSITORY_PATHS``.
"""

import glob
import os
import re

import pytest

REPO = __file__.rsplit("/tests/", 1)[0]
DOCS = ("README.md", "DESIGN.md")
ROOTS = ("", "src", "src/repro")

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


def named_paths(doc):
    """The path-like words of *doc*'s backticked spans, ``::`` dropped."""
    with open(os.path.join(REPO, doc)) as f:
        text = f.read()
    words = {word for span in _SPAN.findall(text) for word in span.split()}
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
