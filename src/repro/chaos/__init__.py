"""Chaos engineering: deterministic fault injection for the engine.

The robustness counterpart of :mod:`repro.obs`: where the tracer shows
what an execution *did*, the injector proves what it *survives*.  See
:mod:`repro.chaos.injector` for the site list and plan shapes, and the
README's "Fault tolerance & chaos testing" section for a worked example.
"""

from repro.chaos.crash import CrashHarness, SimulatedCrash, crash_points
from repro.chaos.injector import SITES, FaultInjector, InjectedFault

__all__ = [
    "SITES",
    "FaultInjector",
    "InjectedFault",
    "CrashHarness",
    "SimulatedCrash",
    "crash_points",
]
