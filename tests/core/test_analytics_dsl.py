"""Co-location through the DSL / RDD integration."""

from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.geometry.point import Point


class TestAnalyticsViaDsl:
    def test_colocation_via_rdd(self, sc):
        rows = []
        for i in range(6):
            rows.append((STObject(Point(i * 100.0, 0)), "cafe"))
            rows.append((STObject(Point(i * 100.0 + 1, 0)), "bakery"))
        rdd = sc.parallelize(rows, 3)
        patterns = rdd.colocation(distance=5.0)
        assert len(patterns) == 1
        assert patterns[0].participation_index == 1.0

    def test_colocation_min_participation_via_wrapper(self, sc):
        rows = [
            (STObject(Point(0, 0)), "a"),
            (STObject(Point(1, 0)), "b"),
            (STObject(Point(500, 0)), "b"),
        ]
        rdd = sc.parallelize(rows, 2)
        assert spatial(rdd).colocation(5.0, min_participation=0.9) == []
        assert len(spatial(rdd).colocation(5.0)) == 1
