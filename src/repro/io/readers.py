"""Event file parsing: the paper's ``(id, category, time, wkt)`` schema.

Files are delimiter-separated text (default ``;`` because WKT contains
commas), one event per line::

    42;accident;123456;POINT (13.4 52.5)

After loading, the pre-processing step from the paper's example turns
rows into ``(STObject, (id, category))`` pairs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.stobject import STObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext
    from repro.spark.rdd import RDD

DEFAULT_DELIMITER = ";"


class EventParseError(ValueError):
    """Raised for rows that do not match the event schema."""


def parse_event_line(
    line: str, delimiter: str = DEFAULT_DELIMITER
) -> tuple[int, str, float, str]:
    """Parse one ``id;category;time;wkt`` line into a typed tuple."""
    parts = line.split(delimiter, 3)
    if len(parts) != 4:
        raise EventParseError(
            f"expected 4 fields separated by {delimiter!r}, got {len(parts)}: {line!r}"
        )
    # ``int`` and ``float`` skip surrounding blanks themselves; only the
    # separators ``\x1c``-``\x1f``, which ``strip`` removes and they do
    # not, need the second, stripped attempt.
    id_text, category, time_text, wkt = parts
    try:
        event_id = int(id_text)
    except ValueError:
        event_id = _stripped(int, id_text, "id", line)
    try:
        time = float(time_text)
    except ValueError:
        time = _stripped(float, time_text, "time", line)
    return (event_id, category.strip(), time, wkt.strip())


def _stripped(convert, text: str, field: str, line: str):
    text = text.strip()
    try:
        return convert(text)
    except ValueError:
        raise EventParseError(f"bad {field} {text!r} in line {line!r}") from None


def format_event_line(
    row: tuple[int, str, float, str], delimiter: str = DEFAULT_DELIMITER
) -> str:
    event_id, category, time, wkt = row
    return delimiter.join((str(event_id), category, repr(float(time)), wkt))


def write_event_file(
    rows, path: str, delimiter: str = DEFAULT_DELIMITER
) -> None:
    """Write event rows as a single flat text file."""
    with open(path, "w") as f:
        for row in rows:
            f.write(format_event_line(row, delimiter))
            f.write("\n")


def load_event_file(
    context: "SparkContext",
    path: str,
    delimiter: str = DEFAULT_DELIMITER,
    num_slices: int | None = None,
    on_error: str = "raise",
) -> "RDD":
    """Load an event file as ``RDD[(STObject, (id, category))]``.

    The returned RDD is exactly the shape of the paper's ``events``
    example: key the spatio-temporal object, value the payload.

    ``on_error`` controls malformed rows: ``"raise"`` (default) fails
    the job with the offending line in the message, ``"skip"`` drops
    bad rows silently -- the usual choice for dirty extraction output
    like the paper's text-mined events.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    lines = context.text_file(path, num_slices)

    def to_events(line: str):
        try:
            event_id, category, time, wkt = parse_event_line(line, delimiter)
            yield (STObject(wkt, time), (event_id, category))
        except (EventParseError, ValueError):
            if on_error == "raise":
                raise

    return lines.filter(lambda line: line.strip()).flat_map(to_events)
