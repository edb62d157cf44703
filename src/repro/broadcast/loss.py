"""Wireless channel fault models.

Broadcast is an unreliable medium: a client can fail to decode a page
(fading, interference, a corrupted frame) and — with no uplink — its only
recourse is waiting for the page's next replica.  The paper assumes a
lossless channel; this module makes the assumption explicit and testable
behind one **fault-model seam**: a :class:`FaultModel` classifies every
reception attempt as ok / lost / corrupt, deterministically per
``(page slot, seed)``, so two clients with the same seed observe the same
fades and experiments stay reproducible.

Three registered implementations cover the usual channel abstractions:

* :class:`PageLossModel` — i.i.d. loss, every attempt fails independently
  with one rate;
* :class:`GilbertElliottLossModel` — the classic two-state Markov burst
  channel (a *good* state with rare losses, a *bad* state modelling a
  correlated fade), so consecutive slots fail together the way real
  multipath fades make them;
* :class:`PageCorruptionModel` — a detected bad decode: the page was
  received but fails its checksum.  Operationally identical to a loss
  (wait for the next replica) but counted separately
  (``ChannelTuner.corrupt_pages``), the distinction link-layer studies
  report.

Every random decision is one counter-based hash: splitmix64 keyed by
``(seed, tag, slot)``, where ``tag`` separates the kinds of draw.  It has
a scalar form on Python ints (:func:`_uniform`) and a numpy ``uint64``
form (:func:`_uniforms`) that agree bit for bit, so a model can draw one
attempt's outcome per call and a whole run of fade states per array pass.
Integer slots key by their value (two's complement), float arrival times
by their IEEE-754 bits.

All models plug into ``TNNEnvironment.build(..., loss=...)`` and are
constructible by name through :func:`make_fault_model` for sweeps and CLI
tools, mirroring the ``register_layout`` registry.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

#: Fault classification codes returned by :meth:`FaultModel.classify`.
FAULT_OK = 0
FAULT_LOST = 1
FAULT_CORRUPT = 2

# Domain-separation tags: independent draws at the same slot never
# correlate by accident.
_TAG_STATE0 = 0  # a Gilbert–Elliott window's stationary state
_TAG_TRANSITION = 1  # a Gilbert–Elliott state transition
_TAG_LOSS = 2  # a loss outcome
_TAG_CORRUPT = 3  # a corruption outcome

_MASK64 = (1 << 64) - 1
# splitmix64's increment (the golden ratio in 64 bits) and its
# finaliser's multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Top 53 hash bits to a uniform in [0, 1): exact in both forms.
_UNIT = 2.0 ** -53

_pack_double = struct.Struct("<d").pack


def _mix64(z: int) -> int:
    """splitmix64's finaliser on a Python int in ``[0, 2**64)``."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _stream_key(seed: int, tag: int) -> int:
    """The hash key of one kind of draw (``tag``) under ``seed``."""
    return (_mix64(seed & _MASK64) + tag) & _MASK64


def _float_bits(t: float) -> int:
    """The IEEE-754 bits of arrival time ``t``, as an unsigned int."""
    return int.from_bytes(_pack_double(t), "little")


def _uniform(key: int, x: int) -> float:
    """A uniform in ``[0, 1)``, a pure function of ``(key, x)``.

    ``x`` is an integer slot or a float's bits (:func:`_float_bits`):
    counter ``x`` of the splitmix64 stream that starts at ``key``.
    """
    return (_mix64((key + x * _GOLDEN) & _MASK64) >> 11) * _UNIT


def _uniforms(key: int, x: np.ndarray) -> np.ndarray:
    """:func:`_uniform` over an ``int64`` slot or ``uint64`` bits array.

    ``uint64`` arithmetic wraps modulo 2**64 like the scalar form's
    masks, so every element equals the scalar draw bit for bit.
    """
    z = x.view(np.uint64) * np.uint64(_GOLDEN) + np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * _UNIT


class FaultModel:
    """One reception attempt's fate, as a pure function of its slot.

    Subclasses implement :meth:`classify`; :meth:`lost` is the boolean
    view legacy callers use (any non-ok fault forces a retry — a corrupt
    page is operationally a loss, it only counts differently).  Outcomes
    must be deterministic per ``(slot, seed)``: replicas of the same page
    at different slots fade independently, as on a real channel, while
    the same client asking about the same slot twice gets a consistent
    answer — the property the drain's closed-form retry chains and the
    per-query retry loop both rely on to stay bit-identical.
    """

    def classify(self, page_slot: float) -> int:
        """Fault code for the reception attempt at absolute ``page_slot``."""
        raise NotImplementedError

    def lost(self, page_slot: float) -> bool:
        """Whether the reception attempt at ``page_slot`` fails."""
        return self.classify(page_slot) != FAULT_OK


def _check_rate(name: str, rate: float) -> None:
    """Validate one failure probability.

    Non-finite rates (NaN silently falls through chained comparisons)
    are rejected explicitly, and ``rate == 1.0`` is refused because every
    retry loop in the client stack waits for the *next replica* of a
    failed page: a page that always fails would livelock the client
    forever instead of surfacing an error.
    """
    if not isinstance(rate, (int, float)) or not math.isfinite(rate):
        raise ValueError(f"{name} must be a finite number, got {rate!r}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(
            f"{name} must be in [0, 1), got {rate} — a rate of 1.0 would "
            "make every replica fail and livelock the retry loop"
        )


def _check_probability(name: str, p: float) -> None:
    if not isinstance(p, (int, float)) or not math.isfinite(p):
        raise ValueError(f"{name} must be a finite number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class PageLossModel(FaultModel):
    """I.i.d. page loss: every reception attempt fails with ``rate``.

    The outcome hashes the attempt's arrival time with the seed, so it is
    a pure function of (slot, seed) — replicas of the same page at
    different slots fade independently, as on a real channel.
    """

    rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate("loss rate", self.rate)
        object.__setattr__(self, "_key", _stream_key(self.seed, _TAG_LOSS))

    def classify(self, page_slot: float) -> int:
        if self.rate == 0.0:
            return FAULT_OK
        u = _uniform(self._key, _float_bits(page_slot))
        return FAULT_LOST if u < self.rate else FAULT_OK


@dataclass(frozen=True)
class GilbertElliottLossModel(FaultModel):
    """Two-state Markov (Gilbert–Elliott) bursty loss.

    The channel alternates between a *good* state (losses at
    ``good_rate``) and a *bad* state (a fade: losses at ``bad_rate``),
    with per-slot transition probabilities ``p_good_bad`` and
    ``p_bad_good`` — mean fade length ``1 / p_bad_good`` slots, so
    consecutive replicas of nearby pages fail together instead of
    independently.

    Determinism per ``(slot, seed)`` despite the chain's memory: the
    state sequence regenerates every ``regen`` slots — at each window
    boundary the state is drawn fresh from the chain's stationary
    distribution, then evolved slot by slot with hashed per-slot
    uniforms inside the window.  Any slot's state is therefore a pure
    function of (seed, its window, its offset), computable without
    global history.

    States are computed a chunk of whole windows at a time (about
    ``_CHUNK_SLOTS`` slots), the first time any slot in the chunk is
    classified, in one numpy pass (:meth:`_fill`).  A transition draw
    ``u`` decides the next state from the current one, and some draws
    decide it whatever the current one is: ``p_bad_good <= u <
    p_good_bad`` forces *bad*, ``p_good_bad <= u < p_bad_good`` forces
    *good*, ``u < min`` flips the state and any other draw keeps it.
    So a slot's state is the state at its last anchor (a forcing draw,
    or the window's stationary draw) XOR the parity of the flips since —
    the forward walk's state exactly.  The memo keeps one byte per slot
    (1 bad, 0 good) for at most ``_MEMO_CHUNKS`` chunks, evicting the
    oldest first; outcomes are pure functions of (seed, slot), so an
    eviction can cost a recomputation, never change a draw.
    """

    good_rate: float = 0.0
    bad_rate: float = 0.5
    p_good_bad: float = 0.05
    p_bad_good: float = 0.25
    seed: int = 0
    #: State-regeneration window (slots).  Larger windows preserve longer
    #: bursts; the default comfortably exceeds the mean fade length of
    #: any plausible parameterisation.
    regen: int = 64
    _chunks: Dict[int, bytes] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    #: Target chunk size in slots, rounded down to whole windows (at least
    #: one).
    _CHUNK_SLOTS = 1 << 14
    #: Memo cap, in chunks: 4 MB of states at the default sizes, well
    #: above the ~100 chunks one shard of a 1,000-query lossy campaign
    #: touches.
    _MEMO_CHUNKS = 256

    def __post_init__(self) -> None:
        _check_rate("good-state loss rate", self.good_rate)
        _check_rate("bad-state loss rate", self.bad_rate)
        _check_probability("p_good_bad", self.p_good_bad)
        _check_probability("p_bad_good", self.p_bad_good)
        if not isinstance(self.regen, int) or self.regen < 1:
            raise ValueError(
                f"regen window must be a positive int, got {self.regen!r}"
            )
        put = object.__setattr__
        put(self, "_span",
            max(1, self._CHUNK_SLOTS // self.regen) * self.regen)
        put(self, "_loss_key", _stream_key(self.seed, _TAG_LOSS))

    def _fill(self, chunk: int) -> bytes:
        """Compute and memoise the fade states of chunk ``chunk``."""
        regen = self.regen
        span = self._span
        slots = np.arange(
            chunk * span, (chunk + 1) * span, dtype=np.int64
        ).reshape(-1, regen)
        p_gb = self.p_good_bad
        p_bg = self.p_bad_good
        u = _uniforms(_stream_key(self.seed, _TAG_TRANSITION), slots)
        # Each window starts from its stationary draw (P(bad); a chain
        # that never transitions stays good).
        denom = p_gb + p_bg
        p_bad = p_gb / denom if denom > 0.0 else 0.0
        u0 = _uniforms(_stream_key(self.seed, _TAG_STATE0), slots[:, 0])
        # Anchors: the draws that force a state, and column 0 (the
        # stationary draw), which np.where fills in for every slot before
        # a window's first forcing draw.  Column 0's transition draw is
        # unused: the parity below counts flips after the anchor only.
        anchor_bad = (p_bg <= u) & (u < p_gb)
        anchor = anchor_bad | ((p_gb <= u) & (u < p_bg))
        anchor_bad[:, 0] = u0 < p_bad
        last = np.maximum.accumulate(
            np.where(anchor, np.arange(regen), 0), axis=1
        )
        parity = np.cumsum(u < min(p_gb, p_bg), axis=1, dtype=np.int32)
        parity -= np.take_along_axis(parity, last, axis=1)
        bad = np.take_along_axis(anchor_bad, last, axis=1) ^ (parity & 1)
        states = bad.astype(np.uint8).tobytes()
        memo = self._chunks
        if len(memo) >= self._MEMO_CHUNKS:
            del memo[next(iter(memo))]  # oldest chunk first
        memo[chunk] = states
        return states

    def classify(self, page_slot: float) -> int:
        chunk, off = divmod(math.floor(page_slot), self._span)
        states = self._chunks.get(chunk)
        if states is None:
            states = self._fill(chunk)
        rate = self.bad_rate if states[off] else self.good_rate
        if rate == 0.0:
            return FAULT_OK
        u = _uniform(self._loss_key, _float_bits(page_slot))
        return FAULT_LOST if u < rate else FAULT_OK


@dataclass(frozen=True)
class PageCorruptionModel(FaultModel):
    """I.i.d. detected bad decodes: received but failing the checksum.

    Operationally identical to a loss — the client waits for the next
    replica — but counted in ``ChannelTuner.corrupt_pages`` instead of
    ``lost_pages``, so experiments can separate erasures (never heard)
    from corruption (heard wrong), the split link-layer traces report.
    """

    rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate("corruption rate", self.rate)
        object.__setattr__(
            self, "_key", _stream_key(self.seed, _TAG_CORRUPT)
        )

    def classify(self, page_slot: float) -> int:
        if self.rate == 0.0:
            return FAULT_OK
        u = _uniform(self._key, _float_bits(page_slot))
        return FAULT_CORRUPT if u < self.rate else FAULT_OK


# ----------------------------------------------------------------------
# Fault-model registry (sweeps, benchmarks, CLI tools construct by name)
# ----------------------------------------------------------------------
_FAULT_REGISTRY: Dict[str, Callable[..., FaultModel]] = {}


def register_fault_model(
    name: str, factory: Callable[..., FaultModel]
) -> None:
    """Register a fault-model factory under ``name`` (overwrites silently)."""
    _FAULT_REGISTRY[name] = factory


def make_fault_model(name: str, **kwargs) -> FaultModel:
    """Construct a registered fault model by name, e.g.
    ``make_fault_model("gilbert-elliott", p_bad_good=0.2)``."""
    try:
        factory = _FAULT_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fault model {name!r}; "
            f"choose from {sorted(_FAULT_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_fault_models() -> List[str]:
    """Registered fault-model names, sorted."""
    return sorted(_FAULT_REGISTRY)


register_fault_model("iid", PageLossModel)
register_fault_model("loss", PageLossModel)
register_fault_model("gilbert-elliott", GilbertElliottLossModel)
register_fault_model("ge", GilbertElliottLossModel)
register_fault_model("corruption", PageCorruptionModel)
