"""GeoJSON decoding from literal documents, files and into RDDs."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stobject import STObject
from repro.geometry import parse_wkt
from repro.io.geojson import (
    GeoJSONError,
    feature_to,
    geojson_to_geometry,
    read_geojson,
)
from repro.temporal import Instant, Interval

#: WKT -> the GeoJSON geometry object naming the same geometry.
DOCUMENTS = {
    "POINT (1 2)": {"type": "Point", "coordinates": [1, 2]},
    "LINESTRING (0 0, 1 1, 2 0)": {
        "type": "LineString",
        "coordinates": [[0, 0], [1, 1], [2, 0]],
    },
    "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))": {
        "type": "Polygon",
        "coordinates": [[[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]],
    },
    "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))": {
        "type": "Polygon",
        "coordinates": [
            [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]],
            [[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]],
        ],
    },
    "MULTIPOINT ((1 2), (3 4))": {"type": "MultiPoint", "coordinates": [[1, 2], [3, 4]]},
    "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))": {
        "type": "MultiLineString",
        "coordinates": [[[0, 0], [1, 1]], [[2, 2], [3, 3]]],
    },
    "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))": {
        "type": "MultiPolygon",
        "coordinates": [
            [[[0, 0], [1, 0], [1, 1], [0, 0]]],
            [[[5, 5], [6, 5], [6, 6], [5, 5]]],
        ],
    },
    "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))": {
        "type": "GeometryCollection",
        "geometries": [
            {"type": "Point", "coordinates": [1, 2]},
            {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
        ],
    },
}
WKTS = list(DOCUMENTS)


def collection(*features):
    return {"type": "FeatureCollection", "features": list(features)}


def write(path, document):
    path.write_text(json.dumps(document))
    return str(path)


class TestGeometryRoundtrip:
    @pytest.mark.parametrize("wkt", WKTS)
    def test_roundtrip(self, wkt):
        assert geojson_to_geometry(DOCUMENTS[wkt]) == parse_wkt(wkt)

    @pytest.mark.parametrize("wkt", WKTS)
    def test_json_serializable(self, wkt, tmp_path):
        """The document as JSON text, inside a FeatureCollection file."""
        feature = {"type": "Feature", "geometry": DOCUMENTS[wkt], "properties": {}}
        path = write(tmp_path / "one.geojson", collection(feature))
        assert read_geojson(path) == [(STObject(parse_wkt(wkt)), {})]

    def test_point_structure(self):
        point = geojson_to_geometry({"type": "Point", "coordinates": [1.0, 2.0]})
        assert (point.x, point.y) == (1.0, 2.0)

    def test_polygon_rings_explicitly_closed(self):
        closed = {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}
        polygon = geojson_to_geometry(closed)
        assert polygon == parse_wkt("POLYGON ((0 0, 1 0, 1 1, 0 0))")
        ring = list(next(polygon.rings()).coords)
        assert ring[0] == ring[-1] and len(ring) == 4

    def test_z_coordinates_truncated(self):
        geom = geojson_to_geometry({"type": "Point", "coordinates": [1, 2, 99]})
        assert geom == parse_wkt("POINT (1 2)")

    @pytest.mark.parametrize(
        "bad",
        [
            {"type": "Circle", "coordinates": [0, 0]},
            {"coordinates": [0, 0]},
            {"type": "Polygon", "coordinates": [[[0, 0], [1, 1]]]},
            "POINT (1 2)",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(GeoJSONError):
            geojson_to_geometry(bad)


POINT = {"type": "Point", "coordinates": [1, 2]}


class TestFeatures:
    def test_spatial_only_feature(self):
        back, props = feature_to({"type": "Feature", "geometry": POINT, "properties": {"name": "x"}})
        assert back == STObject("POINT (1 2)")
        assert props == {"name": "x"}

    def test_instant_travels_in_properties(self):
        feature = {
            "type": "Feature",
            "geometry": POINT,
            "properties": {"repro:time_start": 1000, "repro:time_end": 1000},
        }
        back, _props = feature_to(feature)
        assert back.time == Instant(1000)

    def test_interval_travels_in_properties(self):
        feature = {
            "type": "Feature",
            "geometry": POINT,
            "properties": {"repro:time_start": 10, "repro:time_end": 20},
        }
        back, _props = feature_to(feature)
        assert back.time == Interval(10, 20)

    def test_time_keys_stripped_from_properties(self):
        feature = {
            "type": "Feature",
            "geometry": POINT,
            "properties": {"a": 1, "repro:time_start": 5},
        }
        back, props = feature_to(feature)
        assert back.time == Instant(5)
        assert props == {"a": 1}

    def test_non_feature_rejected(self):
        with pytest.raises(GeoJSONError):
            feature_to({"type": "FeatureCollection"})


class TestFiles:
    def test_file_roundtrip(self, tmp_path):
        document = collection(
            {
                "type": "Feature",
                "geometry": POINT,
                "properties": {
                    "id": 1,
                    "category": "accident",
                    "repro:time_start": 100,
                    "repro:time_end": 100,
                },
            },
            {
                "type": "Feature",
                "geometry": DOCUMENTS["POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"],
                "properties": {"id": 2, "repro:time_start": 10, "repro:time_end": 20},
            },
            {"type": "Feature", "geometry": DOCUMENTS["LINESTRING (0 0, 1 1, 2 0)"], "properties": {}},
        )
        assert read_geojson(write(tmp_path / "events.geojson", document)) == [
            (STObject("POINT (1 2)", 100), {"id": 1, "category": "accident"}),
            (STObject("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", 10, 20), {"id": 2}),
            (STObject("LINESTRING (0 0, 1 1, 2 0)"), {}),
        ]

    def test_non_collection_rejected(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({"type": "Feature"}))
        with pytest.raises(GeoJSONError):
            read_geojson(str(path))

    def test_load_as_rdd(self, sc, tmp_path):
        document = collection(
            *(
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [i, i]},
                    "properties": {"id": i, "repro:time_start": i * 10.0},
                }
                for i in range(50)
            )
        )
        rdd = sc.parallelize(read_geojson(write(tmp_path / "events.geojson", document)))
        assert rdd.count() == 50
        # the loaded RDD is queryable like any event RDD
        # JTS contains semantics: the boundary points (0,0) and (10,10)
        # are not contained, leaving i = 1..9.
        query = STObject("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))", 0, 1000)
        assert rdd.containedBy(query).count() == 9


coords = st.floats(min_value=-180, max_value=180, allow_nan=False)


class TestGeoJSONProperties:
    @given(coords, coords, st.one_of(st.none(), st.floats(0, 1e6, allow_nan=False)))
    @settings(max_examples=60)
    def test_point_feature_roundtrip(self, x, y, t):
        properties = {} if t is None else {"repro:time_start": t, "repro:time_end": t}
        feature = {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [x, y]},
            "properties": properties,
        }
        back, _ = feature_to(json.loads(json.dumps(feature)))
        assert back.geo.centroid().x == pytest.approx(x)
        assert back.geo.centroid().y == pytest.approx(y)
        if t is None:
            assert back.time is None
        else:
            assert back.time.start == pytest.approx(t)
