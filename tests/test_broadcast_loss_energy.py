"""Tests for the page-loss model and the energy model."""

import math
import pickle
import random
import time

import numpy as np
import pytest

from repro.broadcast import (
    FAULT_CORRUPT,
    FAULT_LOST,
    FAULT_OK,
    BroadcastChannel,
    BroadcastProgram,
    ChannelTuner,
    EnergyModel,
    GilbertElliottLossModel,
    PageCorruptionModel,
    PageLossModel,
    SystemParameters,
    available_fault_models,
    make_fault_model,
    register_fault_model,
)
from repro.broadcast.loss import (
    _TAG_CORRUPT,
    _TAG_LOSS,
    _TAG_STATE0,
    _TAG_TRANSITION,
    _float_bits,
    _stream_key,
    _uniform,
    _uniforms,
)
from repro.client import BroadcastNNSearch
from repro.core import DoubleNN, TNNEnvironment
from repro.datasets import uniform
from repro.geometry import Point, Rect, distance
from repro.rtree import str_pack


def make_setup(n=200, seed=0, loss=None):
    rng = random.Random(seed)
    pts = [Point(rng.random() * 1000, rng.random() * 1000) for _ in range(n)]
    params = SystemParameters(page_capacity=64)
    tree = str_pack(pts, params.leaf_capacity, params.internal_fanout)
    program = BroadcastProgram(tree, params, m=2)
    return pts, tree, ChannelTuner(BroadcastChannel(program), loss=loss)


# ----------------------------------------------------------------------
# PageLossModel
# ----------------------------------------------------------------------
def test_loss_rate_validation():
    with pytest.raises(ValueError):
        PageLossModel(rate=-0.1)
    with pytest.raises(ValueError):
        PageLossModel(rate=1.0)
    PageLossModel(rate=0.0)  # boundary ok


def test_loss_rate_rejects_non_finite_and_explains_livelock():
    """Satellite: NaN silently falls through chained comparisons, and
    rate=1.0 would make every replica fail — both must raise clearly."""
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            PageLossModel(rate=bad)
    with pytest.raises(ValueError, match="livelock"):
        PageLossModel(rate=1.0)
    with pytest.raises(ValueError, match="finite"):
        PageLossModel(rate="0.5")  # type: ignore[arg-type]


def test_loss_zero_never_loses():
    model = PageLossModel(rate=0.0)
    assert not any(model.lost(float(t)) for t in range(1000))


def test_loss_deterministic():
    model = PageLossModel(rate=0.3, seed=7)
    outcomes = [model.lost(float(t)) for t in range(100)]
    assert outcomes == [model.lost(float(t)) for t in range(100)]


def test_loss_seed_changes_outcomes():
    a = [PageLossModel(0.3, seed=1).lost(float(t)) for t in range(200)]
    b = [PageLossModel(0.3, seed=2).lost(float(t)) for t in range(200)]
    assert a != b


def test_loss_empirical_rate():
    model = PageLossModel(rate=0.25, seed=3)
    losses = sum(model.lost(float(t)) for t in range(20_000))
    assert abs(losses / 20_000 - 0.25) < 0.02


# ----------------------------------------------------------------------
# Gilbert-Elliott bursty loss
# ----------------------------------------------------------------------
def test_ge_validation():
    with pytest.raises(ValueError):
        GilbertElliottLossModel(bad_rate=1.0)  # livelocks inside a fade
    with pytest.raises(ValueError):
        GilbertElliottLossModel(p_good_bad=1.5)
    with pytest.raises(ValueError):
        GilbertElliottLossModel(p_bad_good=math.nan)
    with pytest.raises(ValueError):
        GilbertElliottLossModel(regen=0)
    GilbertElliottLossModel(p_good_bad=1.0, p_bad_good=1.0)  # boundaries ok


def test_ge_deterministic_and_order_independent():
    """Any slot's outcome is a pure function of (seed, slot): querying out
    of order, repeatedly, or on a fresh instance never changes it."""
    kwargs = dict(
        bad_rate=0.7, p_good_bad=0.1, p_bad_good=0.25, seed=5, regen=16
    )
    a = GilbertElliottLossModel(**kwargs)
    forward = [a.classify(float(t)) for t in range(300)]
    b = GilbertElliottLossModel(**kwargs)
    backward = [b.classify(float(t)) for t in reversed(range(300))]
    assert forward == backward[::-1]
    assert forward == [a.classify(float(t)) for t in range(300)]  # memoised


def test_ge_fades_are_bursty():
    """Losses cluster: the conditional loss rate right after a loss is
    well above the marginal rate (the whole point of the model)."""
    model = GilbertElliottLossModel(
        good_rate=0.0, bad_rate=0.9, p_good_bad=0.03, p_bad_good=0.15, seed=2
    )
    outcomes = [model.lost(float(t)) for t in range(30_000)]
    marginal = sum(outcomes) / len(outcomes)
    after_loss = [b for a, b in zip(outcomes, outcomes[1:]) if a]
    conditional = sum(after_loss) / len(after_loss)
    assert 0.0 < marginal < 0.5
    assert conditional > 2.0 * marginal


def test_ge_never_transitions_stays_good():
    model = GilbertElliottLossModel(
        good_rate=0.0, bad_rate=0.9, p_good_bad=0.0, p_bad_good=0.0, seed=1
    )
    assert not any(model.lost(float(t)) for t in range(2_000))


def test_ge_fractional_slots_share_state_draw_independently():
    """Sub-slot arrivals (phased channels) map to the floor slot's state
    but draw their own loss uniform on the exact float arrival."""
    model = GilbertElliottLossModel(
        good_rate=0.0, bad_rate=1.0 - 1e-12, p_good_bad=0.5, p_bad_good=0.0,
        seed=3,
    )
    # bad_rate ~ 1: inside a fade every attempt fails, outside none does,
    # so two arrivals in the same slot must agree with the slot's state.
    for t in range(200):
        assert model.lost(t + 0.25) == model.lost(t + 0.75) == model.lost(
            float(t)
        )


def _forward_walk_states(model, w):
    """Reference fade states of window ``w``: the whole window walked
    forward from its stationary draw, one scalar hash per slot."""
    start = w * model.regen
    mask = 2**64 - 1
    denom = model.p_good_bad + model.p_bad_good
    p_bad = model.p_good_bad / denom if denom > 0.0 else 0.0
    state0 = _stream_key(model.seed, _TAG_STATE0)
    transition = _stream_key(model.seed, _TAG_TRANSITION)
    bad = _uniform(state0, start & mask) < p_bad
    states = [bad]
    for off in range(1, model.regen):
        u = _uniform(transition, (start + off) & mask)
        bad = (u >= model.p_bad_good) if bad else (u < model.p_good_bad)
        states.append(bad)
    return states


def _forward_walk_classify(model, page_slot):
    w, off = divmod(math.floor(page_slot), model.regen)
    bad = _forward_walk_states(model, w)[off]
    rate = model.bad_rate if bad else model.good_rate
    if rate == 0.0:
        return FAULT_OK
    u = _uniform(_stream_key(model.seed, _TAG_LOSS), _float_bits(page_slot))
    return FAULT_LOST if u < rate else FAULT_OK


def _random_slots(rng, n, span):
    """Random float slots: fractional arrivals, integer slots, clusters,
    negative slots, and the slots either side of chunk edges."""
    slots = []
    while len(slots) < n:
        t = rng.uniform(-3.0 * span, 3.0 * span)
        edge = float(rng.randrange(-3, 4) * span)
        slots += [t, float(math.floor(t)), t + rng.randrange(1, 9),
                  edge, edge - 1.0, edge - 0.5]
    return slots[:n]


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"p_good_bad": 0.2, "p_bad_good": 0.2},  # no forcing draws
        {"regen": 1},
        {"regen": 48},  # does not divide the chunk
        {"regen": 100},
        {"p_good_bad": 0.0},
        {"p_good_bad": 0.3, "p_bad_good": 0.1},  # draws that force *bad*
    ],
    ids=["defaults", "no-forcing-draws", "regen-1", "regen-48",
         "regen-100", "never-fades", "forces-bad"],
)
def test_ge_lazy_states_match_forward_walk(kwargs):
    """The chunked numpy pass classifies every slot exactly like the
    scalar forward walk over its whole window, in either query order."""
    rng = random.Random(17)
    for seed in range(3):
        model = GilbertElliottLossModel(
            good_rate=0.1, bad_rate=0.8, seed=seed, **kwargs
        )
        assert model._span % model.regen == 0  # whole windows per chunk
        slots = _random_slots(rng, 600, model._span)
        want = [_forward_walk_classify(model, t) for t in slots]
        assert [model.classify(t) for t in slots] == want
        fresh = GilbertElliottLossModel(
            good_rate=0.1, bad_rate=0.8, seed=seed, **kwargs
        )
        assert [fresh.classify(t) for t in reversed(slots)] == want[::-1]
        assert min(fresh._chunks) < 0 < max(fresh._chunks)


def test_ge_memo_cap_evicts_without_changing_outcomes(monkeypatch):
    """Past the memo cap the oldest chunks are evicted; recomputed
    states are the same draws, and the memo never exceeds the cap."""
    cap = 3
    monkeypatch.setattr(GilbertElliottLossModel, "_MEMO_CHUNKS", cap)
    monkeypatch.setattr(GilbertElliottLossModel, "_CHUNK_SLOTS", 64)
    kwargs = dict(good_rate=0.1, bad_rate=0.8, seed=4, regen=16)
    model = GilbertElliottLossModel(**kwargs)
    assert model._span == 64
    slots = _random_slots(random.Random(23), 1_500, 400)
    want = [_forward_walk_classify(model, t) for t in slots]
    for order in (slots, slots[::-1], slots):  # evicted chunks re-derive
        got = []
        for t in order:
            got.append(model.classify(t))
            assert len(model._chunks) <= cap
        assert got == (want if order is slots else want[::-1])
    touched = {math.floor(t) // model._span for t in slots}
    assert len(touched) > 10 * cap  # evictions really happened


@pytest.mark.parametrize("tag", [_TAG_STATE0, _TAG_TRANSITION, _TAG_LOSS])
def test_scalar_and_numpy_uniforms_agree_bit_for_bit(tag):
    """One hash, two forms: the scalar draw on Python ints and the numpy
    ``uint64`` pass give the same float for every integer slot and every
    float arrival's bits."""
    rng = random.Random(tag)
    ints = [rng.randrange(-(2**20), 2**20) for _ in range(500)]
    ints += [2**40 + rng.randrange(-500, 500) for _ in range(200)]
    ints += [-(2**40) + rng.randrange(-500, 500) for _ in range(200)]
    ints += [0, -1, 2**63 - 1, -(2**63)]
    floats = [rng.uniform(-(2**40), 2**40) for _ in range(500)]
    floats += [f + 0.5 for f in ints[:200]] + [0.0, -0.0, 2.0**40 - 0.25]
    for seed in (0, 7, -3, 2**62):
        key = _stream_key(seed, tag)
        got = _uniforms(key, np.array(ints, dtype=np.int64))
        want = [_uniform(key, x & (2**64 - 1)) for x in ints]
        assert got.tolist() == want
        got = _uniforms(key, np.array(floats, dtype=np.float64).view(np.uint64))
        want = [_uniform(key, _float_bits(t)) for t in floats]
        assert got.tolist() == want
        assert all(0.0 <= u < 1.0 for u in want)


def test_ge_pickled_memo_keeps_outcomes():
    """A model shipped with a filled memo (as pool workers receive it)
    classifies like the original and like a fresh instance."""
    kwargs = dict(good_rate=0.1, bad_rate=0.8, seed=9, regen=48)
    model = GilbertElliottLossModel(**kwargs)
    slots = _random_slots(random.Random(5), 800, model._span)
    want = [model.classify(t) for t in slots]
    assert model._chunks
    clone = pickle.loads(pickle.dumps(model))
    assert clone == model and clone._chunks == model._chunks
    assert [clone.classify(t) for t in reversed(slots)] == want[::-1]
    fresh = GilbertElliottLossModel(**kwargs)
    assert [fresh.classify(t) for t in slots] == want


#: Slots per statistical draw: 2**20 outcomes per fault family.
_STAT_SLOTS = 1 << 20


def _iid_stats(model, tag, code):
    """Empirical fault rate of an i.i.d. model over ``_STAT_SLOTS``
    phased arrivals, drawn with the numpy form of the hash; a sample of
    the same slots goes through ``classify`` too."""
    arrivals = np.arange(_STAT_SLOTS, dtype=np.float64) + 0.375
    u = _uniforms(_stream_key(model.seed, tag), arrivals.view(np.uint64))
    faults = u < model.rate
    for i in range(0, _STAT_SLOTS, 997):
        assert model.classify(float(arrivals[i])) == (
            code if faults[i] else FAULT_OK)
    return faults.mean()


@pytest.mark.parametrize("name", ["iid", "gilbert-elliott", "corruption"])
def test_fault_families_match_configured_statistics(name):
    """At a fixed seed, 2**20 outcomes per registered fault family match
    the configured parameters.  Tolerances are about five standard
    errors: 0.002 on an i.i.d. rate (sd ~4e-4 at 2**20 draws); for the
    Gilbert–Elliott chain, whose neighbouring slots correlate, 0.005 on
    the bad fraction (sd ~9e-4), 0.003 on the loss rate and 2% on the
    mean fade length (sd ~0.4%, estimated from ~170k bad-to-next-slot
    transitions)."""
    t0 = time.perf_counter()
    families = {
        type(make_fault_model(n)) for n in available_fault_models()
    }
    assert families == {
        PageLossModel, GilbertElliottLossModel, PageCorruptionModel
    }
    if name == "iid":
        model = make_fault_model(name, rate=0.25, seed=11)
        rate = _iid_stats(model, _TAG_LOSS, FAULT_LOST)
        assert abs(rate - 0.25) < 0.002
    elif name == "corruption":
        model = make_fault_model(name, rate=0.1, seed=11)
        rate = _iid_stats(model, _TAG_CORRUPT, FAULT_CORRUPT)
        assert abs(rate - 0.1) < 0.002
    else:
        model = make_fault_model(name, good_rate=0.01, seed=11)
        n_chunks = _STAT_SLOTS // model._span
        states = np.frombuffer(
            b"".join(model._fill(c) for c in range(n_chunks)), np.uint8
        ).astype(bool)
        slots = np.arange(states.size, dtype=np.int64)
        p_gb, p_bg = model.p_good_bad, model.p_bad_good
        assert abs(states.mean() - p_gb / (p_gb + p_bg)) < 0.005
        # Mean fade length: bad slots with a successor in their window
        # over the fades that end there (the geometric sojourn's MLE).
        windows = states.reshape(-1, model.regen)
        stays = windows[:, :-1] & windows[:, 1:]
        exits = windows[:, :-1] & ~windows[:, 1:]
        fade = (stays.sum() + exits.sum()) / exits.sum()
        assert abs(fade / (1.0 / p_bg) - 1.0) < 0.02
        arrivals = (slots + 0.625).astype(np.float64)
        u = _uniforms(_stream_key(model.seed, _TAG_LOSS),
                      arrivals.view(np.uint64))
        lost = u < np.where(states, model.bad_rate, model.good_rate)
        want = (p_gb * model.bad_rate + p_bg * model.good_rate) / (p_gb + p_bg)
        assert abs(lost.mean() - want) < 0.003
        for i in range(0, states.size, 997):
            assert model.classify(float(arrivals[i])) == (
                FAULT_LOST if lost[i] else FAULT_OK)
    assert time.perf_counter() - t0 < 1.0


# ----------------------------------------------------------------------
# Page corruption
# ----------------------------------------------------------------------
def test_corruption_classified_separately():
    model = PageCorruptionModel(rate=0.4, seed=6)
    codes = {model.classify(float(t)) for t in range(500)}
    assert codes == {FAULT_OK, FAULT_CORRUPT}
    assert FAULT_LOST not in codes
    # Operationally a corrupt decode is a loss: lost() forces the retry.
    assert any(model.lost(float(t)) for t in range(500))


def test_corrupt_pages_counted_separately_from_lost():
    _, tree, tuner = make_setup(
        seed=6, loss=PageCorruptionModel(rate=0.5, seed=8)
    )
    search = BroadcastNNSearch(tree, tuner, Point(500.0, 500.0))
    search.run_to_completion()
    assert tuner.corrupt_pages > 0
    assert tuner.lost_pages == 0
    assert any(not ok for *_, ok in tuner.log)


# ----------------------------------------------------------------------
# Fault-model registry
# ----------------------------------------------------------------------
def test_fault_model_registry():
    names = available_fault_models()
    for expected in ("iid", "loss", "gilbert-elliott", "ge", "corruption"):
        assert expected in names
    assert make_fault_model("iid", rate=0.2, seed=3) == PageLossModel(
        rate=0.2, seed=3
    )
    ge = make_fault_model("ge", p_bad_good=0.4)
    assert isinstance(ge, GilbertElliottLossModel)
    assert ge.p_bad_good == 0.4
    with pytest.raises(ValueError, match="unknown fault model"):
        make_fault_model("btree")
    register_fault_model("test-iid", PageLossModel)
    assert isinstance(make_fault_model("test-iid"), PageLossModel)


# ----------------------------------------------------------------------
# Lossy tuner behaviour
# ----------------------------------------------------------------------
def test_lossless_tuner_has_no_lost_pages():
    _, tree, tuner = make_setup(seed=1)
    BroadcastNNSearch(tree, tuner, Point(500, 500)).run_to_completion()
    assert tuner.lost_pages == 0


def test_lossy_search_still_exact():
    pts, tree, tuner = make_setup(seed=2, loss=PageLossModel(rate=0.3, seed=9))
    q = Point(444, 333)
    search = BroadcastNNSearch(tree, tuner, q)
    search.run_to_completion()
    _, d = search.result()
    assert math.isclose(d, min(distance(q, p) for p in pts), rel_tol=1e-12)
    assert tuner.lost_pages > 0


def test_loss_increases_access_and_tunein():
    q = Point(500, 500)
    _, tree, clean = make_setup(seed=3)
    s1 = BroadcastNNSearch(tree, clean, q)
    s1.run_to_completion()
    _, tree2, lossy = make_setup(seed=3, loss=PageLossModel(rate=0.4, seed=11))
    s2 = BroadcastNNSearch(tree2, lossy, q)
    s2.run_to_completion()
    assert lossy.now > clean.now
    assert lossy.pages_downloaded > clean.pages_downloaded
    # Lost attempts are part of the tune-in accounting.
    assert lossy.pages_downloaded >= clean.pages_downloaded + lossy.lost_pages * 0


def test_lossy_object_download():
    _, tree, tuner = make_setup(seed=4, loss=PageLossModel(rate=0.5, seed=13))
    ppo = tuner.channel.program.params.pages_per_object
    tuner.download_object(0)
    assert tuner.data_pages >= ppo
    assert tuner.data_pages == ppo + tuner.lost_pages


# ----------------------------------------------------------------------
# EnergyModel
# ----------------------------------------------------------------------
def test_energy_validation():
    with pytest.raises(ValueError):
        EnergyModel(active_watts=0)
    with pytest.raises(ValueError):
        EnergyModel(doze_watts=2.0, active_watts=1.0)
    with pytest.raises(ValueError):
        EnergyModel(page_seconds=0)


def test_energy_simple_accounting():
    model = EnergyModel(active_watts=1.0, doze_watts=0.1, page_seconds=1.0)
    # 10 pages active + 90 pages dozing.
    assert math.isclose(model.joules(10, 100), 10 * 1.0 + 90 * 0.1)


def test_energy_negative_rejected():
    model = EnergyModel()
    with pytest.raises(ValueError):
        model.joules(-1, 10)


def test_energy_of_result_and_savings():
    region = Rect(0, 0, 2000, 2000)
    env = TNNEnvironment.build(
        uniform(200, seed=1, region=region), uniform(200, seed=2, region=region)
    )
    p = Point(1000, 1000)
    base = DoubleNN().run(env, p)
    model = EnergyModel()
    assert model.of(base) > 0
    # Savings against itself are zero.
    assert model.savings(base, base) == 0.0


def test_energy_monotone_in_tunein():
    model = EnergyModel()
    assert model.joules(50, 100) > model.joules(10, 100)
