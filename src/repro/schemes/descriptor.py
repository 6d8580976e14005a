"""Coding-scheme descriptors: the pluggable scheme API (§IV-A).

The paper's evaluation is a three-way scheme comparison (WC / RLNC /
LTNC), and everything downstream — the epidemic simulator, the
catalogue simulator, scenario and content specs, the figure harnesses —
is scheme-agnostic through one node protocol.  A
:class:`CodingScheme` bundles everything the machinery needs to know
about one scheme:

* factories for participants (:meth:`CodingScheme.make_node`) and for
  the content source (:meth:`CodingScheme.make_source`);
* capability flags (``supports_full_feedback`` for Algorithm-4 smart
  construction, ``supports_generations`` for striping, ``recodes``,
  ``exact_innovation_check``) so callers branch on *capabilities*
  instead of comparing scheme names;
* a typed knob schema (:class:`Knob`) that validates ``node_kwargs``
  at spec time — a typo fails when the :class:`ScenarioSpec` is built,
  not mid-trial inside a worker process;
* per-scheme experiment defaults (``default_node_kwargs``, e.g.
  LTNC's 1 % aggressiveness) and an optional :class:`CostProbe` for
  the Figure-8 cycle measurements.

Descriptors are plain frozen dataclasses; they carry no mutable state
and are shared freely across simulators and worker processes.  The
registry in :mod:`repro.schemes.registry` maps names to descriptors.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.errors import SimulationError
from repro.rng import make_rng

__all__ = ["SchemeNode", "Knob", "CostProbe", "CodingScheme"]


@runtime_checkable
class SchemeNode(Protocol):
    """The node protocol every dissemination scheme implements."""

    scheme: str
    node_id: int
    k: int

    def is_complete(self) -> bool: ...

    def can_send(self) -> bool: ...

    def make_packet(self, receiver_state: object | None = None) -> object: ...

    def header_is_innovative(self, vector: object) -> bool: ...

    def receive(self, packet: object) -> bool: ...

    def feedback_state(self) -> object | None: ...


@dataclass(frozen=True)
class Knob:
    """One typed, range-checked scheme knob (a ``node_kwargs`` entry).

    ``kind`` is the accepted python type: ``bool``, ``int`` or
    ``float`` (ints are accepted where floats are expected, bools are
    never silently accepted as numbers).  ``default=None`` with
    ``allow_none=True`` marks a contextual default computed by the
    node factory (e.g. WC's ``ceil(ln N)`` fan-out).
    """

    name: str
    kind: type = float
    default: object = None
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False
    allow_none: bool = False
    help: str = ""

    def validate(self, value: object, owner: str = "scheme") -> None:
        """Raise :class:`SimulationError` unless *value* fits this knob."""
        where = f"{owner} knob {self.name!r}"
        if value is None:
            if self.allow_none:
                return
            raise SimulationError(f"{where} must not be None")
        if self.kind is bool:
            ok = isinstance(value, (bool, np.bool_))
        elif self.kind is int:
            ok = isinstance(value, (int, np.integer)) and not isinstance(
                value, bool
            )
        elif self.kind is float:
            ok = isinstance(
                value, (int, float, np.integer, np.floating)
            ) and not isinstance(value, bool)
        else:
            ok = isinstance(value, self.kind)
        if not ok:
            raise SimulationError(
                f"{where} expects {self.kind.__name__}, "
                f"got {value!r} ({type(value).__name__})"
            )
        if self.kind in (int, float):
            # NaN/inf slip past < / > range checks; python ints are
            # finite by construction (and may overflow float()).
            if isinstance(value, (float, np.floating)) and not math.isfinite(
                value
            ):
                raise SimulationError(
                    f"{where} must be finite, got {value!r}"
                )
            if self.minimum is not None:
                below = (
                    value <= self.minimum
                    if self.exclusive_min
                    else value < self.minimum
                )
                if below:
                    bound = (
                        f"> {self.minimum}"
                        if self.exclusive_min
                        else f">= {self.minimum}"
                    )
                    raise SimulationError(f"{where} must be {bound}, got {value}")
            if self.maximum is not None and value > self.maximum:
                raise SimulationError(
                    f"{where} must be <= {self.maximum}, got {value}"
                )


@dataclass(frozen=True)
class CostProbe:
    """Hooks for the Figure-8 cost measurements of one scheme.

    ``warm(k, seed)`` returns a node mid-dissemination whose
    ``recode_counter`` the recoding panels sample;
    ``decode_stream(k, seed)`` returns ``(node, next_packet)`` — a
    fresh node plus a packet supplier of its own scheme — for the
    decoding panels.  Schemes without a cost model leave the probe
    (or a hook) as ``None``.
    """

    warm: Callable[[int, int], SchemeNode] | None = None
    decode_stream: (
        Callable[[int, int], tuple[SchemeNode, Callable[[], object]]] | None
    ) = None


#: ``(node_id, k, payload_nbytes, n_nodes, rng, **kwargs) -> SchemeNode``
NodeFactory = Callable[..., SchemeNode]
#: ``(k, content, rng, **kwargs) -> SchemeNode``
SourceFactory = Callable[..., SchemeNode]


@dataclass(frozen=True, eq=False)
class CodingScheme:
    """Everything the dissemination machinery knows about one scheme.

    Parameters
    ----------
    name:
        Registry key; what specs and CLIs call the scheme.
    summary:
        One-line description for listings (``--schemes``).
    node_factory:
        ``(node_id, k, payload_nbytes, n_nodes, rng, **kwargs)`` →
        participant node.  ``rng`` arrives as a ready generator;
        contextual defaults (WC's fan-out) belong here.
    source_factory:
        ``(k, content, rng, **kwargs)`` → a node pre-loaded with all
        *k* natives; *content* is ``None``, a (k, m) uint8 matrix or
        its :func:`~repro.coding.packet.native_payloads` conversion
        (what the simulators pass, converted once for all sources).
    supports_full_feedback:
        ``make_packet(receiver_state)`` exploits the receiver's state
        (LTNC's Algorithm-4 smart construction).
    supports_generations:
        The scheme's coding state composes with generation striping
        (:mod:`repro.generations`).
    recodes:
        Emits genuinely recoded packets (WC only forwards natives).
    exact_innovation_check:
        ``header_is_innovative`` is exact, so overhead is identically
        zero under binary feedback (WC's lookup, RLNC's partial Gauss).
    knobs:
        Typed schema for ``node_kwargs``; the spec layer validates
        against it at construction time.
    default_node_kwargs:
        Per-scheme experiment defaults (LTNC's 1 % aggressiveness);
        the figure drivers and registry sweeps start from these.
    cost_probe:
        Optional Figure-8 measurement hooks.
    """

    name: str
    summary: str
    node_factory: NodeFactory
    source_factory: SourceFactory
    supports_full_feedback: bool = False
    supports_generations: bool = False
    recodes: bool = True
    exact_innovation_check: bool = False
    knobs: tuple[Knob, ...] = ()
    default_node_kwargs: Mapping[str, object] = field(default_factory=dict)
    cost_probe: CostProbe | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SimulationError(
                f"scheme name must be a non-empty identifier, got {self.name!r}"
            )
        object.__setattr__(self, "knobs", tuple(self.knobs))
        names = [knob.name for knob in self.knobs]
        if len(set(names)) != len(names):
            raise SimulationError(
                f"scheme {self.name!r} declares duplicate knobs: {names}"
            )
        object.__setattr__(
            self, "default_node_kwargs", dict(self.default_node_kwargs)
        )
        # Defaults must themselves satisfy the schema they advertise.
        self.validate_node_kwargs(
            self.default_node_kwargs, where=f"scheme {self.name!r} defaults"
        )

    # ------------------------------------------------------------------
    @property
    def knob_names(self) -> tuple[str, ...]:
        return tuple(knob.name for knob in self.knobs)

    def knob(self, name: str) -> Knob | None:
        """The :class:`Knob` called *name*, or ``None``."""
        for knob in self.knobs:
            if knob.name == name:
                return knob
        return None

    def capabilities(self) -> tuple[str, ...]:
        """The active capability flags, for listings and reports."""
        return tuple(
            label
            for label, on in (
                ("recodes", self.recodes),
                ("full-feedback", self.supports_full_feedback),
                ("generations", self.supports_generations),
                ("exact-check", self.exact_innovation_check),
            )
            if on
        )

    def validate_node_kwargs(
        self, kwargs: Mapping[str, object], where: str = "node_kwargs"
    ) -> None:
        """Check *kwargs* against the knob schema; raise on any misfit.

        Unknown names get a did-you-mean pointing at the closest
        registered knob, so ``agressiveness=3`` fails loudly at spec
        time instead of as a ``TypeError`` mid-trial in a worker.
        """
        for key, value in kwargs.items():
            knob = self.knob(key)
            if knob is None:
                close = difflib.get_close_matches(key, self.knob_names, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                known = ", ".join(self.knob_names) or "(none)"
                raise SimulationError(
                    f"{where}: scheme {self.name!r} has no knob {key!r}"
                    f"{hint}; known knobs: {known}"
                )
            knob.validate(value, owner=f"{where}: scheme {self.name!r}")

    # ------------------------------------------------------------------
    def make_node(
        self,
        node_id: int,
        k: int,
        payload_nbytes: int | None = None,
        n_nodes: int = 2,
        rng: np.random.Generator | int | None = None,
        **kwargs: object,
    ) -> SchemeNode:
        """Instantiate one dissemination participant.

        Extra *kwargs* flow to the scheme's node constructor (e.g.
        ``aggressiveness`` / ``refine`` for LTNC, ``sparsity`` for
        RLNC, ``buffer_size`` / ``fanout`` for WC, ``density`` for
        sparse RLNC).
        """
        rng = make_rng(rng)
        return self.node_factory(
            node_id, k, payload_nbytes, n_nodes, rng, **kwargs
        )

    def make_source(
        self,
        k: int,
        content: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
        **kwargs: object,
    ) -> SchemeNode:
        """The content source: a node pre-loaded with all *k* natives."""
        rng = make_rng(rng)
        return self.source_factory(k, content, rng, **kwargs)

    def __repr__(self) -> str:
        caps = ",".join(self.capabilities()) or "-"
        return f"CodingScheme({self.name!r}, capabilities={caps})"
