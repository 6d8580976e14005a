"""Self-time spans layered around the program's public calls.

The benchmark never edits the program: :class:`SpanTracer` replaces a
fixed list of public methods on their classes with timing wrappers for
the length of a traced run, and :meth:`SpanTracer.uninstall` puts the
originals back.  Each wrapper records its span's inclusive time and its
self time (inclusive minus the time of spans it called), so the self
times of all spans partition the traced wall time.  Wrappers read no
rng and change no argument or result, so a traced run computes exactly
what an untraced one does; the runner checks that on every traced run.

A hook whose module, class or method no longer exists is recorded in
:attr:`SpanTracer.missing` instead of failing, and the metrics built on
it are reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span, module, class, methods).  Span names are "<layer>.<operation>";
# the layer prefix is the repository package the method belongs to.  A
# class's subclasses that override a method are wrapped too.
HOOKS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("gossip.init", "repro.gossip.simulator", "EpidemicSimulator", ("__init__",)),
    ("gossip.run", "repro.gossip.simulator", "EpidemicSimulator", ("run",)),
    ("gossip.sampler", "repro.gossip.peer_sampling", "PeerSampler",
     ("peers", "peers_batch")),
    ("gossip.channel", "repro.gossip.channel", "ChannelModel",
     ("loses", "delivers_batch", "duplicates", "churns")),
    ("core.make_packet", "repro.core.node", "LtncNode", ("make_packet",)),
    ("core.header_check", "repro.core.node", "LtncNode",
     ("header_is_innovative",)),
    ("core.receive", "repro.core.node", "LtncNode", ("receive",)),
    ("lt.receive", "repro.lt.decoder", "BeliefPropagationDecoder", ("receive",)),
    ("costmodel.add", "repro.costmodel.counters", "OpCounter", ("add",)),
    ("rlnc.make_packet", "repro.rlnc.node", "RlncNode", ("make_packet",)),
    ("rlnc.header_check", "repro.rlnc.node", "RlncNode",
     ("header_is_innovative",)),
    ("rlnc.receive", "repro.rlnc.node", "RlncNode", ("receive",)),
    ("wc.make_packet", "repro.wc.node", "WcNode", ("make_packet",)),
    ("wc.header_check", "repro.wc.node", "WcNode", ("header_is_innovative",)),
    ("wc.receive", "repro.wc.node", "WcNode", ("receive",)),
    ("gf2.is_innovative", "repro.gf2.matrix", "IncrementalRref",
     ("is_innovative",)),
    ("gf2.reduce", "repro.gf2.matrix", "IncrementalRref", ("reduce",)),
    ("gf2.insert", "repro.gf2.matrix", "IncrementalRref", ("insert",)),
    ("gf2.is_innovative", "repro.gf2.batch", "BatchRref", ("is_innovative",)),
    ("gf2.reduce", "repro.gf2.batch", "BatchRref", ("reduce",)),
    ("gf2.insert", "repro.gf2.batch", "BatchRref", ("insert",)),
    ("scenarios.build", "repro.scenarios.spec", "ScenarioSpec", ("build",)),
    ("scenarios.run_grid", "repro.scenarios.fleet", "FleetRunner",
     ("run_grid",)),
    ("scenarios.checkpoint", "repro.scenarios.fleet", "CheckpointStore",
     ("save",)),
)

#: Spans whose individual inclusive durations are kept (trial times).
KEEP_DURATIONS = frozenset({"gossip.run", "scenarios.build"})


def _class_tree(cls: type) -> list[type]:
    seen: list[type] = []
    todo = [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


class SpanTracer:
    """Per-span call counts, self and inclusive seconds, in memory."""

    def __init__(self) -> None:
        #: span -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list[float]] = {}
        #: span -> inclusive seconds of every call (KEEP_DURATIONS only)
        self.durations: dict[str, list[float]] = {}
        #: spans whose hook target is absent from the program
        self.missing: set[str] = set()
        # Child-time accumulators; the bottom entry collects the time of
        # top-level spans.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[type, str, object]] = []
        self._patched: set[tuple[type, str]] = set()

    # ------------------------------------------------------------------
    def _wrap(self, span: str, fn):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        durations = (
            self.durations.setdefault(span, [])
            if span in KEEP_DURATIONS
            else None
        )
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += total - child
                stats[2] += total
                stack[-1] += total
                if durations is not None:
                    durations.append(total)

        return wrapper

    def install(self) -> "SpanTracer":
        """Wrap every method :data:`HOOKS` names.

        A span counts as missing when none of its targets exists, so a
        span with two kernels (``gf2.*``) survives the removal of one.
        """
        found: set[str] = set()
        for span, module_name, class_name, methods in HOOKS:
            self.stats.setdefault(span, [0, 0.0, 0.0])
            try:
                base = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                continue
            for method in methods:
                if not callable(getattr(base, method, None)):
                    continue
                found.add(span)
                for cls in _class_tree(base):
                    original = cls.__dict__.get(method)
                    if original is None or (cls, method) in self._patched:
                        continue
                    self._patched.add((cls, method))
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(span, original))
        self.missing = set(self.stats) - found
        return self

    def uninstall(self) -> None:
        """Restore every wrapped method, newest first."""
        while self._patches:
            cls, method, original = self._patches.pop()
            setattr(cls, method, original)
        self._patched.clear()

    def __enter__(self) -> "SpanTracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def calls(self, span: str) -> int | None:
        return None if span in self.missing else int(self.stats[span][0])

    def self_s(self, span: str) -> float | None:
        return None if span in self.missing else self.stats[span][1]

    def self_us_per_call(self, span: str) -> float | None:
        if span in self.missing:
            return None
        calls, self_s, _ = self.stats[span]
        return 1e6 * self_s / calls if calls else 0.0

    def layer_self_s(self, layer: str) -> float | None:
        """Summed self time of a layer's spans."""
        spans = [s for s in self.stats if s.split(".", 1)[0] == layer]
        if any(s in self.missing for s in spans):
            return None
        return sum(self.stats[s][1] for s in spans)

    def total_self_s(self) -> float:
        return sum(st[1] for st in self.stats.values())
