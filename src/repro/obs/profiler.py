"""Per-phase wall-time profiling for the simulator hot loops.

The perf-kernel note in ROADMAP.md needs per-phase timings to decide
where the next optimisation pays off (numpy multi-row elimination at
k ≥ 2048 helps *decode*, not *sampling*), and the perf trajectory in
``BENCH_ltnc.json`` (schema v3) now carries a ``phases`` section built
from this module.

A :class:`PhaseProfiler` accumulates ``(seconds, calls)`` per named
phase, measured exclusively on the monotonic clock
(``time.perf_counter``) — never wall-clock dates, so suspends and NTP
steps cannot produce negative phase times.  The canonical phases the
instrumented :class:`~repro.gossip.simulator.EpidemicSimulator` step
charges are:

``sampling``  peer/target draws and the per-round push permutation
``channel``   loss / duplication / churn draws
``encode``    packet construction (``make_packet``; includes the LTNC
              refinement, which is additionally reported standalone)
``decode``    header innovation checks and ``receive`` processing
``refine``    Algorithm-2 refinement inside LTNC recoding (a *subset*
              of ``encode``, charged through each ``LtncNode``'s
              ``profiler`` attribute, which the simulator sets on its
              own nodes, so the encode/refine split is visible without
              restructuring the recoding pipeline)

Profiling is opt-in per simulator (``profiler=``); when absent the
simulator runs its unmodified hot loop — no ``perf_counter`` calls at
all.  Enabling it never changes simulation *results*: timing reads no
rng and charges no OpCounter, which ``tests/test_obs_invariance.py``
pins.
"""

from __future__ import annotations

import time

__all__ = ["PHASES", "PhaseProfiler"]

#: Canonical phase names, in report order.
PHASES = ("sampling", "channel", "encode", "decode", "refine")


class PhaseProfiler:
    """Accumulates wall seconds and call counts per named phase."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Charge *seconds* (and *calls* invocations) to *phase*."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls

    def phase(self, name: str) -> "_PhaseTimer":
        """Context manager charging the with-block's duration to *name*."""
        return _PhaseTimer(self, name)

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's totals into this one (per-trial agg)."""
        for phase, seconds in other.seconds.items():
            self.add(phase, seconds, other.calls.get(phase, 0))

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def snapshot(self) -> dict[str, dict[str, float | int]]:
        """JSON-able per-phase table, canonical phases first.

        ``fraction`` is each phase's share of the *measured* time (the
        ``refine`` subset of ``encode`` included as reported, so
        fractions describe the table, not a partition of wall time).
        """
        total = self.total_seconds()
        ordered = [p for p in PHASES if p in self.seconds] + sorted(
            p for p in self.seconds if p not in PHASES
        )
        return {
            phase: {
                "seconds": round(self.seconds[phase], 6),
                "calls": self.calls.get(phase, 0),
                "fraction": round(
                    self.seconds[phase] / total if total else 0.0, 4
                ),
            }
            for phase in ordered
        }

    def __bool__(self) -> bool:
        return bool(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{p}={s:.4f}s" for p, s in sorted(self.seconds.items())
        )
        return f"PhaseProfiler({inner})"


class _PhaseTimer:
    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: PhaseProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._profiler.add(self._name, time.perf_counter() - self._t0)

