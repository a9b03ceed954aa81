"""Figure 4: self-join execution times across systems and partitioners.

Paper values (1M points, cluster): GeoSpark N/A without partitioning /
51.9 s with Voronoi; SpatialSpark 31.1 s without / 95.9 s with Tile;
STARK 19.8 s without / 6.3 s with BSP.

The bars are :func:`repro.evaluation.report.figure4`'s, the same ones
``python benchmarks/run_fig4.py`` prints as a table; it checks every
bar's pair count and that GeoSpark's un-partitioned join is N/A.  This
test asserts the figure's shape on them:

- STARK outperforms the other frameworks in both configurations,
- STARK + BSP is the fastest configuration overall, a multiple faster
  than STARK without partitioning.
"""

from __future__ import annotations

from repro.evaluation.report import figure4


class TestFig4Shape:
    """The figure's qualitative claims, asserted on :func:`figure4`'s bars."""

    def test_stark_wins_and_bsp_speedup(self, benchmark, sc, sizes):
        bars = benchmark.pedantic(
            lambda: figure4(sc, sizes["fig4_points"], repeats=2), rounds=1
        )
        stark_nopart, stark_bsp = bars["STARK", None], bars["STARK", "BSP"]
        spatialspark_nopart = bars["SpatialSpark", None]

        # STARK outperforms SpatialSpark without partitioning (paper:
        # 19.8 s vs 31.1 s).
        assert stark_nopart < spatialspark_nopart
        # STARK's best partitioner beats every other configuration
        # (paper: 6.3 s vs everything else).
        assert stark_bsp < stark_nopart
        assert stark_bsp < bars["GeoSpark", "Voronoi"]
        assert stark_bsp < spatialspark_nopart
        # BSP gives a clear multiple over STARK's own un-partitioned run
        # (paper: ~3.1x).
        assert stark_nopart / stark_bsp > 2.0
