"""Key-value (shuffle) transformations."""

import pytest

from repro.chaos import FaultInjector
from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner


class TestPartitionBy:
    def test_co_locates_equal_keys(self, sc):
        rdd = sc.parallelize([(i % 3, i) for i in range(30)], 5)
        shuffled = rdd.partition_by(HashPartitioner(3))
        for block in shuffled.glom().collect():
            keys = {k for k, _v in block}
            # each partition holds complete key groups
            for k, v in rdd.collect():
                if k in keys:
                    assert (k, v) in block

    def test_sets_partitioner(self, sc):
        part = HashPartitioner(3)
        shuffled = sc.parallelize([(1, 2)], 2).partition_by(part)
        assert shuffled.partitioner == part
        assert shuffled.num_partitions == 3

    def test_noop_when_already_partitioned(self, sc):
        part = HashPartitioner(3)
        once = sc.parallelize([(1, 2)], 2).partition_by(part)
        assert once.partition_by(HashPartitioner(3)) is once

    def test_repartitions_on_different_partitioner(self, sc):
        once = sc.parallelize([(1, 2)], 2).partition_by(HashPartitioner(3))
        again = once.partition_by(HashPartitioner(5))
        assert again is not once
        assert again.num_partitions == 5


class TestAggregations:
    def test_reduce_by_key(self, sc):
        rdd = sc.parallelize([(i % 3, i) for i in range(12)], 4)
        assert sorted(rdd.reduce_by_key(lambda a, b: a + b).collect()) == [
            (0, 18), (1, 22), (2, 26),
        ]

    def test_group_by_key(self, sc):
        rdd = sc.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
        grouped = dict(rdd.group_by_key().collect())
        assert sorted(grouped["a"]) == [1, 3]
        assert grouped["b"] == [2]

    def test_combine_by_key_custom_combiner(self, sc):
        rdd = sc.parallelize([("a", 1), ("a", 2), ("b", 3)], 2)
        result = dict(
            rdd.combine_by_key(lambda v: [v], lambda acc, v: acc + [v],
                               lambda a, b: a + b).collect()
        )
        assert sorted(result["a"]) == [1, 2]

    def test_group_by_function(self, sc):
        rdd = sc.parallelize(range(10), 3)
        grouped = dict(rdd.group_by(lambda x: x % 2).collect())
        assert sorted(grouped[0]) == [0, 2, 4, 6, 8]

    def test_map_values_preserves_partitioner(self, sc):
        part = HashPartitioner(3)
        shuffled = sc.parallelize([(1, 2)], 2).partition_by(part)
        assert shuffled.map_values(lambda v: v + 1).partitioner == part

    def test_map_drops_partitioner(self, sc):
        part = HashPartitioner(3)
        shuffled = sc.parallelize([(1, 2)], 2).partition_by(part)
        assert shuffled.map(lambda kv: kv).partitioner is None

    def test_keys_values(self, sc):
        rdd = sc.parallelize([(1, "a"), (2, "b")], 1)
        assert rdd.keys().collect() == [1, 2]
        assert rdd.values().collect() == ["a", "b"]

    def test_flat_map_values(self, sc):
        rdd = sc.parallelize([(1, "ab")], 1)
        assert rdd.flat_map_values(list).collect() == [(1, "a"), (1, "b")]


class TestJoins:
    def test_inner_join(self, sc):
        left = sc.parallelize([(1, "a"), (2, "b"), (3, "c")], 2)
        right = sc.parallelize([(2, "x"), (3, "y"), (4, "z")], 3)
        assert sorted(left.join(right).collect()) == [
            (2, ("b", "x")), (3, ("c", "y")),
        ]

    def test_join_duplicate_keys_cross_product(self, sc):
        left = sc.parallelize([(1, "a"), (1, "b")], 1)
        right = sc.parallelize([(1, "x"), (1, "y")], 1)
        assert len(left.join(right).collect()) == 4

    def test_cogroup(self, sc):
        left = sc.parallelize([(1, "a"), (1, "b")], 2)
        right = sc.parallelize([(1, "x"), (2, "y")], 2)
        result = dict(left.cogroup(right).collect())
        assert sorted(result[1][0]) == ["a", "b"]
        assert result[1][1] == ["x"]
        assert result[2] == ([], ["y"])

    def test_join_with_explicit_partitioner(self, sc):
        left = sc.parallelize([(1, "a")], 1)
        right = sc.parallelize([(1, "x")], 1)
        joined = left.join(right, partitioner=HashPartitioner(7))
        assert joined.num_partitions == 7
        assert joined.collect() == [(1, ("a", "x"))]


class TestShuffleMachinery:
    def test_shuffle_counted_once(self, sc):
        rdd = sc.parallelize([(1, 1)] * 10, 4).reduce_by_key(lambda a, b: a + b)
        sc.metrics.reset()
        rdd.collect()
        rdd.collect()  # map side re-used, not re-executed
        assert sc.metrics.shuffles_executed == 1

    def test_map_side_combine_reduces_shuffle_records(self, sc):
        # 100 records, 1 key, 4 partitions: combine collapses to <= 4.
        rdd = sc.parallelize([(0, 1)] * 100, 4)
        sc.metrics.reset()
        rdd.reduce_by_key(lambda a, b: a + b).collect()
        combined_records = sc.metrics.shuffle_records_written
        sc.metrics.reset()
        rdd.partition_by(HashPartitioner(4)).collect()
        raw_records = sc.metrics.shuffle_records_written
        assert combined_records <= 4
        assert raw_records == 100

    @pytest.mark.parametrize("executor", ["sequential", "threads"])
    def test_in_place_combiners_see_private_map_outputs(self, executor):
        # Spark lets merge_combiners modify and return its first argument,
        # and a combining shuffle's map outputs are read again by later
        # actions and by reduce retries: every read must merge its own.
        def append(acc, v):
            acc.append(v)
            return acc

        def extend(a, b):
            a.extend(b)
            return a

        data = [(i % 3, i) for i in range(30)]
        expected = {k: sorted(v for key, v in data if key == k) for k in range(3)}
        with SparkContext(
            f"isolation-{executor}", parallelism=2, executor=executor, retry_backoff=0.0
        ) as sc:
            rdd = sc.parallelize(data, 4)
            shuffles = [rdd.combine_by_key(lambda v: [v], append, extend)]
            answers = [shuffled.collect() for shuffled in shuffles for _ in range(2)]
            with FaultInjector().fail("shuffle.fetch", times=1).installed(sc):
                answers += [shuffled.collect() for shuffled in shuffles]
            assert sc.metrics.tasks_retried > 0
        for answer in answers:
            assert {k: sorted(values) for k, values in answer} == expected

    def test_hash_partitioner_contract(self):
        part = HashPartitioner(4)
        assert part.num_partitions == 4
        for key in ["a", 42, (1, 2)]:
            assert 0 <= part.get_partition(key) < 4

    def test_hash_partitioner_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_hash_partitioner_rejects_zero(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)
