"""Plain-text reporting helpers for the experiment harness.

Besides the classic aligned-table output (:func:`format_table`,
:func:`print_experiment`), this module provides the *streaming* surface
of the runtime layer: :func:`point_printer` builds an ``on_point``
callback for the sweep scheduler that prints one line per completed
point — in completion order, while the sweep is still running — and
:func:`stream_experiment` drives a whole experiment that way before
printing the final table.

Streaming and progress lines go to **stderr**; only headers and final
tables are written to stdout, so the row output of a piped harness run
stays clean of in-flight chatter.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "format_table",
    "format_row",
    "point_printer",
    "print_experiment",
    "stream_experiment",
]


def format_table(rows: Sequence[Mapping], columns: Sequence[str] | None = None) -> str:
    """Render a list of dict rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[str(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = " | ".join(str(column).ljust(widths[index]) for index, column in enumerate(columns))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(line[index].ljust(widths[index]) for index in range(len(columns)))
        for line in rendered
    )
    return f"{header}\n{separator}\n{body}"


def format_row(row: Mapping) -> str:
    """One row as a compact ``key=value`` line (for streaming output)."""
    return "  ".join(f"{key}={value}" for key, value in row.items())


def point_printer(identifier: str, out: Callable[[str], None] | None = None) -> Callable:
    """An ``on_point`` callback printing each completed sweep point.

    Suitable for :meth:`repro.runtime.SweepScheduler.run` and the
    experiment functions that accept ``on_point``: every record is
    printed the moment its grid point completes, so long-running
    parallel sweeps report progress instead of going dark until the
    final table.  ``out`` defaults to printing on stderr (resolved per
    line, so redirection works), keeping stdout clean for the final
    table.
    """

    def on_point(record) -> None:
        line = f"[{identifier}] point {record.index}: {format_row(record.as_row())}"
        if out is not None:
            out(line)
        else:
            print(line, file=sys.stderr, flush=True)

    return on_point


def print_experiment(identifier: str, title: str, rows: Iterable[Mapping]) -> None:
    """Print one experiment's rows in the format recorded in EXPERIMENTS.md."""
    rows = list(rows)
    print(f"\n=== {identifier}: {title} ===")
    print(format_table(rows))


def stream_experiment(
    identifier: str,
    title: str,
    experiment: Callable[..., list],
    progress=None,
    **options,
) -> list:
    """Run ``experiment(on_point=...)`` streaming, then print the table.

    ``options`` (``parallel=``, ``store=``, depths …)
    are forwarded to the experiment function; the streaming callback is
    injected and writes to stderr.  ``progress`` is an optional
    :class:`repro.obs.ProgressReporter` chained onto the same callback
    (its closing summary line is emitted after the sweep).  Returns the
    experiment's rows.
    """
    print(f"\n=== {identifier}: {title} (streaming) ===")
    printer = point_printer(identifier)
    if progress is None:
        on_point = printer
    else:
        def on_point(record) -> None:
            printer(record)
            progress.on_point(record)
    rows = experiment(on_point=on_point, **options)
    if progress is not None:
        progress.final()
    print(format_table(rows))
    return rows
