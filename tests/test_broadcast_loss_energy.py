"""Tests for the page-loss model and the energy model."""

import math
import random

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
from repro.broadcast.loss import _slot_uniform
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
    forward from its stationary draw (the pre-lazy implementation)."""
    start = w * model.regen
    denom = model.p_good_bad + model.p_bad_good
    p_bad = model.p_good_bad / denom if denom > 0.0 else 0.0
    bad = _slot_uniform(model.seed, start, model._TAG_STATE0) < p_bad
    states = [bad]
    for off in range(1, model.regen):
        u = _slot_uniform(model.seed, start + off, model._TAG_TRANSITION)
        bad = (u >= model.p_bad_good) if bad else (u < model.p_good_bad)
        states.append(bad)
    return states


def _forward_walk_classify(model, page_slot):
    w, off = divmod(math.floor(page_slot), model.regen)
    bad = _forward_walk_states(model, w)[off]
    rate = model.bad_rate if bad else model.good_rate
    if rate == 0.0:
        return FAULT_OK
    u = _slot_uniform(model.seed, page_slot, model._TAG_LOSS)
    return FAULT_LOST if u < rate else FAULT_OK


def _random_slots(rng, n):
    """Random float slots: fractional arrivals, integer slots, clusters."""
    slots = []
    while len(slots) < n:
        t = rng.uniform(-200.0, 20_000.0)
        slots += [t, float(math.floor(t)), t + rng.randrange(1, 9)]
    return slots[:n]


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"p_good_bad": 0.2, "p_bad_good": 0.2},  # no forcing draws
        {"regen": 1},
        {"p_good_bad": 0.0},
        {"p_good_bad": 0.3, "p_bad_good": 0.1},  # draws that force *bad*
    ],
    ids=["defaults", "no-forcing-draws", "regen-1", "never-fades",
         "forces-bad"],
)
def test_ge_lazy_states_match_forward_walk(kwargs):
    """The lazy backward walk classifies every slot exactly like the
    forward walk over its whole window, in any query order."""
    rng = random.Random(17)
    for seed in range(3):
        model = GilbertElliottLossModel(
            good_rate=0.1, bad_rate=0.8, seed=seed, **kwargs
        )
        slots = _random_slots(rng, 1_500)
        want = [_forward_walk_classify(model, t) for t in slots]
        assert [model.classify(t) for t in slots] == want
        assert [model.classify(t) for t in reversed(slots)] == want[::-1]


def test_ge_memo_cap_evicts_without_changing_outcomes(monkeypatch):
    """Past the memo cap the oldest windows are evicted; recomputed
    states are the same draws, and the memo never exceeds the cap."""
    cap = 8
    monkeypatch.setattr(GilbertElliottLossModel, "_MEMO_WINDOWS", cap)
    kwargs = dict(good_rate=0.1, bad_rate=0.8, seed=4, regen=16)
    model = GilbertElliottLossModel(**kwargs)
    slots = _random_slots(random.Random(23), 2_000)
    want = [_forward_walk_classify(model, t) for t in slots]
    for _ in range(2):  # the second pass re-derives evicted windows
        got = []
        for t in slots:
            got.append(model.classify(t))
            assert len(model._windows) <= cap
        assert got == want
    touched = {math.floor(t) // model.regen for t in slots}
    assert len(touched) > 10 * cap  # evictions really happened


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
