"""Narrow transformations and laziness of the RDD engine."""

import pytest

from repro.spark.rdd import PartitionPruningRDD


class TestBasics:
    def test_parallelize_preserves_order(self, sc):
        assert sc.parallelize(range(10), 3).collect() == list(range(10))

    def test_parallelize_partition_count(self, sc):
        assert sc.parallelize(range(10), 3).num_partitions == 3

    def test_default_slices_from_context(self, sc):
        assert sc.parallelize(range(10)).num_partitions == sc.default_parallelism

    def test_empty_rdd(self, sc):
        assert sc.empty_rdd().collect() == []
        assert sc.empty_rdd().count() == 0

    def test_more_slices_than_elements(self, sc):
        rdd = sc.parallelize([1, 2], 8)
        assert rdd.num_partitions == 8
        assert rdd.collect() == [1, 2]


class TestMapFilter:
    def test_map(self, sc):
        assert sc.parallelize([1, 2, 3], 2).map(lambda x: x * 10).collect() == [10, 20, 30]

    def test_filter(self, sc):
        assert sc.parallelize(range(10), 3).filter(lambda x: x % 2 == 0).collect() == [
            0, 2, 4, 6, 8,
        ]

    def test_flat_map(self, sc):
        assert sc.parallelize([1, 2], 2).flat_map(lambda x: [x] * x).collect() == [1, 2, 2]

    def test_map_is_lazy(self, sc):
        calls = []
        rdd = sc.parallelize([1, 2, 3], 1).map(lambda x: calls.append(x) or x)
        assert calls == []
        rdd.collect()
        assert calls == [1, 2, 3]

    def test_chaining(self, sc):
        result = (
            sc.parallelize(range(100), 4)
            .map(lambda x: x + 1)
            .filter(lambda x: x % 3 == 0)
            .map(str)
            .collect()
        )
        assert result == [str(x) for x in range(1, 101) if x % 3 == 0]


class TestPartitionLevel:
    def test_map_partitions(self, sc):
        sums = sc.parallelize(range(10), 2).map_partitions(lambda it: [sum(it)]).collect()
        assert sums == [10, 35]

    def test_map_partitions_with_index(self, sc):
        tagged = sc.parallelize(range(4), 2).map_partitions_with_index(
            lambda i, it: [(i, x) for x in it]
        ).collect()
        assert tagged == [(0, 0), (0, 1), (1, 2), (1, 3)]

    def test_glom(self, sc):
        assert sc.parallelize(range(4), 2).glom().collect() == [[0, 1], [2, 3]]



class TestSetLike:
    def test_union_keeps_duplicates(self, sc):
        a = sc.parallelize([1, 2], 1)
        b = sc.parallelize([2, 3], 1)
        assert sorted(a.union(b).collect()) == [1, 2, 2, 3]

    def test_union_partition_count(self, sc):
        assert sc.parallelize([1], 2).union(sc.parallelize([2], 3)).num_partitions == 5

    def test_distinct(self, sc):
        assert sorted(sc.parallelize([3, 1, 3, 2, 1], 3).distinct().collect()) == [1, 2, 3]

    def test_cartesian(self, sc):
        pairs = sc.parallelize([1, 2], 2).cartesian(sc.parallelize("ab", 2)).collect()
        assert sorted(pairs) == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]


class TestMisc:
    def test_key_by(self, sc):
        assert sc.parallelize([1, 2], 1).key_by(lambda x: x * 10).collect() == [
            (10, 1), (20, 2),
        ]

    def test_zip_with_index_is_global_and_ordered(self, sc):
        indexed = sc.parallelize("abcdef", 3).zip_with_index().collect()
        assert indexed == [(c, i) for i, c in enumerate("abcdef")]

    def test_sample_deterministic_per_seed(self, sc):
        rdd = sc.parallelize(range(1000), 4)
        a = rdd.sample(0.1, seed=5).collect()
        b = rdd.sample(0.1, seed=5).collect()
        assert a == b
        assert 40 < len(a) < 200

    def test_sample_zero_fraction(self, sc):
        assert sc.parallelize(range(100), 2).sample(0.0).collect() == []

    def test_sample_negative_rejected(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([1]).sample(-0.5)

    def test_sort_by_ascending(self, sc):
        data = [5, 3, 8, 1, 9, 2]
        assert sc.parallelize(data, 3).sort_by(lambda x: x).collect() == sorted(data)

    def test_sort_by_descending(self, sc):
        data = list(range(50))
        result = sc.parallelize(data, 4).sort_by(lambda x: x, ascending=False).collect()
        assert result == sorted(data, reverse=True)

    def test_partition_pruning_rdd(self, sc):
        rdd = sc.parallelize(range(12), 4)  # partitions of 3
        pruned = PartitionPruningRDD(rdd, [1, 3])
        assert pruned.num_partitions == 2
        assert pruned.collect() == [3, 4, 5, 9, 10, 11]

    def test_partition_pruning_out_of_range(self, sc):
        with pytest.raises(IndexError):
            PartitionPruningRDD(sc.parallelize(range(4), 2), [5])

    def test_to_debug_string_shows_lineage(self, sc):
        rdd = sc.parallelize([1], 1).map(lambda x: x).filter(bool)
        text = rdd.to_debug_string()
        assert text.count("MapPartitionsRDD") == 2
        assert "ParallelCollectionRDD" in text
