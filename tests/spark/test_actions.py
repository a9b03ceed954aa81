"""RDD actions."""


class TestCollectCount:
    def test_collect_order(self, sc):
        assert sc.parallelize(range(7), 3).collect() == list(range(7))

    def test_count(self, sc):
        assert sc.parallelize(range(101), 7).count() == 101


class TestTakeFirst:
    def test_take(self, sc):
        assert sc.parallelize(range(100), 10).take(5) == [0, 1, 2, 3, 4]

    def test_take_more_than_available(self, sc):
        assert sc.parallelize([1, 2], 2).take(10) == [1, 2]

    def test_take_zero(self, sc):
        assert sc.parallelize([1], 1).take(0) == []

    def test_take_computes_few_partitions(self, sc):
        rdd = sc.parallelize(range(100), 10)
        sc.metrics.reset()
        rdd.take(3)
        # elements 0..2 live in partition 0; only one task needed
        assert sc.metrics.tasks_launched == 1


class TestActionJobAccounting:
    """take must run through the scheduler: every partition probe is a
    real job, so jobs_run and tasks_launched stay truthful."""

    def test_take_counts_as_a_job(self, sc):
        rdd = sc.parallelize(range(100), 10)
        sc.metrics.reset()
        assert rdd.take(3) == [0, 1, 2]
        assert sc.metrics.jobs_run == 1
        assert sc.metrics.tasks_launched == 1

    def test_take_one_job_per_probed_partition(self, sc):
        rdd = sc.parallelize(range(20), 10)  # two elements per partition
        sc.metrics.reset()
        assert rdd.take(5) == [0, 1, 2, 3, 4]
        assert sc.metrics.jobs_run == 3
        assert sc.metrics.tasks_launched == 3

    def test_take_nested_inside_a_task_runs_inline(self, threaded_sc):
        # take from inside a running task must respect nested-job
        # execution (inline, no pool re-entry) now that it goes through
        # run_job; with more outer tasks than pool threads this would
        # deadlock otherwise.
        sc = threaded_sc
        inner = sc.parallelize(range(10), 4)
        outer = sc.parallelize(range(8), 8)

        def probe(it):
            list(it)
            return inner.take(2)

        assert sc.run_job(outer, probe) == [[0, 1]] * 8


class TestForeach:
    def test_foreach_partition(self, sc):
        sizes = []
        sc.parallelize(range(6), 3).foreach_partition(
            lambda it: sizes.append(sum(1 for _ in it))
        )
        assert sorted(sizes) == [2, 2, 2]
