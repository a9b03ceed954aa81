#!/usr/bin/env python3
"""Regenerate the paper's Figure 4 as a table.

Prints, for each system, the self-join execution time without spatial
partitioning and with that system's best partitioner -- the same two
bars per system the figure shows.

Usage::

    python benchmarks/run_fig4.py [--points N] [--repeats R]
"""

from __future__ import annotations

import argparse

from repro.evaluation.report import figure4, render_figure4
from repro.spark.context import SparkContext


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20_000,
                        help="dataset size (paper: 1,000,000)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--parallelism", type=int, default=4)
    args = parser.parse_args()

    with SparkContext("fig4", parallelism=args.parallelism) as sc:
        print()
        print(render_figure4(args.points, figure4(sc, args.points, args.repeats)))


if __name__ == "__main__":
    main()
