"""Placeholder for the deleted time-sliced forest index.

No index mode builds this class; both methods raise.  It stays only
because the benchmark's wrapper table (``bench/layers.py``) still names
``TimeSlicedForest.__init__`` and ``TimeSlicedForest.query_st`` and the
benchmark's own test resolves every binding it names.  A benchmark
change that drops those two bindings deletes this module.
"""


class TimeSlicedForest:
    """Never built: every mode is ``spatial`` or ``3d``."""

    def __init__(self, *args, **kwargs):
        raise NotImplementedError("the time-sliced forest index was removed; use mode='3d'")

    def query_st(self, region, time):
        """Raise: there is no forest to probe."""
        raise NotImplementedError("the time-sliced forest index was removed; use mode='3d'")
