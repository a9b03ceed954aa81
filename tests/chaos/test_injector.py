"""FaultInjector unit behaviour: plans, determinism, env wiring."""

import pytest

from repro.chaos import SITES, FaultInjector, InjectedFault
from repro.spark.context import SparkContext

pytestmark = pytest.mark.chaos


class TestPlans:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultInjector().fail("task.computee", times=1)

    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultInjector().fail("task.compute")
        with pytest.raises(ValueError, match="exactly one"):
            FaultInjector().fail("task.compute", times=1, probability=0.5)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultInjector().fail("task.compute", times=0)
        with pytest.raises(ValueError, match="probability"):
            FaultInjector().fail("task.compute", probability=1.5)

    def test_fail_n_times_per_key(self):
        inj = FaultInjector().fail("task.compute", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                inj.check("task.compute", key=("rdd", 0))
        inj.check("task.compute", key=("rdd", 0))  # budget spent
        # a different key has its own budget
        with pytest.raises(InjectedFault):
            inj.check("task.compute", key=("rdd", 1))

    def test_fail_n_times_global(self):
        inj = FaultInjector().fail("task.compute", times=1, per_key=False)
        with pytest.raises(InjectedFault):
            inj.check("task.compute", key="a")
        inj.check("task.compute", key="b")  # global budget already spent

    def test_unplanned_site_never_fires(self):
        inj = FaultInjector().fail("task.compute", times=1)
        for site in sorted(SITES - {"task.compute"}):
            inj.check(site, key="x")

    def test_probability_deterministic_for_seed(self):
        def draws(seed):
            inj = FaultInjector(seed=seed).fail("cache.get", probability=0.5)
            outcomes = []
            for i in range(50):
                try:
                    inj.check("cache.get", key=i)
                    outcomes.append(False)
                except InjectedFault:
                    outcomes.append(True)
            return outcomes

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_reset_rewinds_counters_and_rng(self):
        inj = FaultInjector(seed=3).fail("task.compute", times=1)
        with pytest.raises(InjectedFault):
            inj.check("task.compute", key="k")
        inj.check("task.compute", key="k")
        inj.reset()
        with pytest.raises(InjectedFault):
            inj.check("task.compute", key="k")

    def test_summary_counts(self):
        inj = FaultInjector().fail("task.compute", times=1)
        with pytest.raises(InjectedFault):
            inj.check("task.compute", key="k")
        inj.check("task.compute", key="k")
        inj.check("cache.get", key="k")
        assert inj.summary() == {
            "task.compute": {"checked": 2, "injected": 1},
            "cache.get": {"checked": 1, "injected": 0},
        }


class TestInstall:
    def test_context_manager_installs_and_restores(self):
        with SparkContext("chaos-test", executor="sequential") as sc:
            inj = FaultInjector()
            assert sc.fault_injector is None
            with inj.installed(sc):
                assert sc.fault_injector is inj
            assert sc.fault_injector is None

    def test_constructor_installs_and_installed_restores(self):
        inj, other = FaultInjector(), FaultInjector()
        with SparkContext("chaos-test", executor="sequential", fault_injector=inj) as sc:
            assert sc.fault_injector is inj
            with other.installed(sc):
                assert sc.fault_injector is other
            assert sc.fault_injector is inj


class TestEnvWiring:
    def test_absent_env_gives_none(self):
        assert FaultInjector.from_env({}) is None
        assert FaultInjector.from_env({"REPRO_CHAOS_SITES": "  "}) is None

    def test_times_and_probability_specs(self):
        inj = FaultInjector.from_env(
            {
                "REPRO_CHAOS_SEED": "9",
                "REPRO_CHAOS_SITES": "task.compute=1x, storage.read=0.25",
            }
        )
        assert inj.seed == 9
        with pytest.raises(InjectedFault):
            inj.check("task.compute", key="t")
        inj.check("task.compute", key="t")
        # probabilistic plan is registered (may or may not fire per draw)
        fired = 0
        for i in range(200):
            try:
                inj.check("storage.read", key=i)
            except InjectedFault:
                fired += 1
        assert 0 < fired < 200

    def test_malformed_clause_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector.from_env({"REPRO_CHAOS_SITES": "task.compute"})
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultInjector.from_env({"REPRO_CHAOS_SITES": "nope=1x"})
