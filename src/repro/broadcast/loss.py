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
  with one rate (the original model, unchanged behaviour);
* :class:`GilbertElliottLossModel` — the classic two-state Markov burst
  channel (a *good* state with rare losses, a *bad* state modelling a
  correlated fade), so consecutive slots fail together the way real
  multipath fades make them;
* :class:`PageCorruptionModel` — a detected bad decode: the page was
  received but fails its checksum.  Operationally identical to a loss
  (wait for the next replica) but counted separately
  (``ChannelTuner.corrupt_pages``), the distinction link-layer studies
  report.

All models plug into ``TNNEnvironment.build(..., loss=...)`` and are
constructible by name through :func:`make_fault_model` for sweeps and CLI
tools, mirroring the ``register_layout`` registry.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List

#: Fault classification codes returned by :meth:`FaultModel.classify`.
FAULT_OK = 0
FAULT_LOST = 1
FAULT_CORRUPT = 2


def _slot_uniform(seed: int, slot: float, tag: int) -> float:
    """A uniform in ``[0, 1)`` that is a pure function of (seed, slot, tag).

    ``tag`` domain-separates independent draws at the same slot (state
    transitions vs loss outcomes), so models composing several random
    decisions per slot never correlate them by accident.
    """
    digest = hashlib.blake2b(
        struct.pack("<qqd", seed, tag, float(slot)), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2**64


class FaultModel:
    """One reception attempt's fate, as a pure function of its slot.

    Subclasses implement :meth:`classify`; :meth:`lost` is the boolean
    view legacy callers use (any non-ok fault forces a retry — a corrupt
    page is operationally a loss, it only counts differently).  Outcomes
    must be deterministic per ``(slot, seed)``: replicas of the same page
    at different slots fade independently, as on a real channel, while
    the same client asking about the same slot twice gets a consistent
    answer — the property the shared-scan executor's closed-form retry
    rescheduling and the per-query retry loop both rely on to stay
    bit-identical.
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
    """I.i.d. page loss: every reception attempt fails with ``rate``."""

    rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate("loss rate", self.rate)

    def lost(self, page_slot: float) -> bool:
        """Whether the reception attempt at absolute slot ``page_slot`` fails.

        Hashes the slot with the seed so the outcome is a pure function of
        (slot, seed) — replicas of the same page at different slots fade
        independently, as on a real channel.
        """
        if self.rate == 0.0:
            return False
        digest = hashlib.blake2b(
            struct.pack("<qd", self.seed, float(page_slot)), digest_size=8
        ).digest()
        u = int.from_bytes(digest, "little") / 2**64
        return u < self.rate

    def classify(self, page_slot: float) -> int:
        return FAULT_LOST if self.lost(page_slot) else FAULT_OK


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

    States are computed lazily, by a backward walk from the wanted slot.
    Some transition draws decide the next state whatever the current one
    is: ``p_bad_good <= u < p_good_bad`` forces *bad* and ``p_good_bad <=
    u < p_bad_good`` forces *good* (any other draw keeps or flips the
    state).  The walk stops at the latest such forcing draw, at a
    memoised slot, or at the window's stationary draw, and replays the
    draws it passed forward — the forward walk's state exactly, at about
    ``1 / |p_bad_good - p_good_bad|`` hashes per state instead of
    ``regen`` per window.  The memo keeps one ``bytearray(regen)`` per
    window (0 unknown, 1 good, 2 bad) for at most ``_MEMO_WINDOWS``
    windows, evicting the oldest first; outcomes are pure functions of
    (seed, slot), so an eviction can cost a recomputation, never change
    a draw.
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
    _windows: Dict[int, bytearray] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    #: Memo cap, in windows (about 0.2 MB per 1,000 windows at the
    #: default ``regen``).
    _MEMO_WINDOWS = 16384

    # Domain-separation tags for the per-slot uniform draws.
    _TAG_STATE0 = 0
    _TAG_TRANSITION = 1
    _TAG_LOSS = 2

    def __post_init__(self) -> None:
        _check_rate("good-state loss rate", self.good_rate)
        _check_rate("bad-state loss rate", self.bad_rate)
        _check_probability("p_good_bad", self.p_good_bad)
        _check_probability("p_bad_good", self.p_bad_good)
        if not isinstance(self.regen, int) or self.regen < 1:
            raise ValueError(
                f"regen window must be a positive int, got {self.regen!r}"
            )

    def _bad(self, slot: int) -> bool:
        """Whether integer ``slot`` is in the bad state (lazy, memoised).

        Walks back from ``slot`` to the nearest state it can read
        without its predecessor — a memoised slot, a forcing transition
        draw, or the window's stationary draw at offset 0 — then replays
        the collected draws forward, memoising every state it passes.
        """
        regen = self.regen
        w, off = divmod(slot, regen)
        windows = self._windows
        memo = windows.get(w)
        if memo is None:
            if len(windows) >= self._MEMO_WINDOWS:
                del windows[next(iter(windows))]  # oldest window first
            memo = windows[w] = bytearray(regen)
        code = memo[off]
        if code:
            return code == 2
        start = w * regen
        seed = self.seed
        p_gb = self.p_good_bad
        p_bg = self.p_bad_good
        draws: List[float] = []
        k = off
        while True:
            if k == 0:
                # Stationary P(bad); a chain that never transitions stays
                # good.
                denom = p_gb + p_bg
                p_bad = p_gb / denom if denom > 0.0 else 0.0
                bad = _slot_uniform(seed, start, self._TAG_STATE0) < p_bad
                break
            u = _slot_uniform(seed, start + k, self._TAG_TRANSITION)
            if p_bg <= u < p_gb:
                bad = True  # bad -> stays bad, good -> turns bad
                break
            if p_gb <= u < p_bg:
                bad = False  # bad -> recovers, good -> stays good
                break
            draws.append(u)
            k -= 1
            code = memo[k]
            if code:
                bad = code == 2
                break
        memo[k] = 2 if bad else 1
        for u in reversed(draws):
            k += 1
            bad = (u >= p_bg) if bad else (u < p_gb)
            memo[k] = 2 if bad else 1
        return bad

    def classify(self, page_slot: float) -> int:
        rate = (
            self.bad_rate if self._bad(math.floor(page_slot))
            else self.good_rate
        )
        if rate == 0.0:
            return FAULT_OK
        u = _slot_uniform(self.seed, page_slot, self._TAG_LOSS)
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

    def classify(self, page_slot: float) -> int:
        if self.rate == 0.0:
            return FAULT_OK
        digest = hashlib.blake2b(
            struct.pack("<qd", self.seed, float(page_slot)), digest_size=8
        ).digest()
        u = int.from_bytes(digest, "little") / 2**64
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
