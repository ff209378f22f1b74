import pytest

from evograft.rng import Rng
from evograft.scoring import ScoreParams, calibrate, score

from conftest import add_model, empty_system, simple_trunk


def test_s_equal_one_disables_penalties():
    sp = ScoreParams(s=1.0, P=123.0, F=456.0)
    rng = Rng(3, "grid")
    for _ in range(50):
        q = rng.uniform()
        assert score(q, rng.uniform() * 1e9, rng.uniform() * 1e12, sp) == q


def test_one_percent_reduction_anchor():
    # quality 0.9 at exactly P accounted params and F flops, s = 0.99
    sp = ScoreParams(s=0.99, P=5000.0, F=80000.0)
    assert score(0.9, 5000.0, 80000.0, sp) == pytest.approx(0.882090, abs=1e-12)


def test_zero_costs_return_quality():
    sp = ScoreParams(s=0.5, P=10.0, F=10.0)
    assert score(0.7, 0.0, 0.0, sp) == 0.7


def test_strict_monotonicity_below_one():
    sp = ScoreParams(s=0.9, P=100.0, F=100.0)
    rng = Rng(4, "mono")
    for _ in range(100):
        a, f = rng.uniform() * 500, rng.uniform() * 500
        base = score(0.8, a, f, sp)
        assert score(0.8, a + 1.0, f, sp) < base
        assert score(0.8, a, f + 1.0, sp) < base


def test_scale_law_exact_with_power_of_two_scales():
    # P and F powers of two make accounted/P exact, so the law holds bit-for-bit
    sp = ScoreParams(s=0.97, P=4.0, F=8.0)
    rng = Rng(5, "scale")
    for _ in range(50):
        a, f = rng.uniform() * 7, rng.uniform() * 7
        assert score(0.6, a * 4.0, f * 8.0, sp) == 0.6 * 0.97 ** a * 0.97 ** f


def test_equal_costs_rank_by_quality():
    sp = ScoreParams(s=0.9, P=50.0, F=50.0)
    qs = [0.1, 0.5, 0.9, 0.3]
    scores = [score(q, 77.0, 33.0, sp) for q in qs]
    assert max(range(4), key=scores.__getitem__) == max(range(4), key=qs.__getitem__)


def test_disabled_factors():
    sp = ScoreParams(s=0.5, P=1.0, F=1.0, compute_factor_enabled=False)
    assert score(1.0, 1.0, 999.0, sp) == 0.5


def test_score_params_validation():
    with pytest.raises(ValueError):
        ScoreParams(s=0.0)
    with pytest.raises(ValueError):
        ScoreParams(s=1.2)
    with pytest.raises(ValueError):
        ScoreParams(P=-1.0)
    with pytest.raises(ValueError):
        ScoreParams(F=float("inf"))


def test_calibrate_single_model():
    system = empty_system()
    trunk = simple_trunk(system)
    model = add_model(system, "a", trunk, 4, 2)
    accounted = system.accounted_params(model)
    flops = system.inference_flops(model)
    sp = calibrate(system, 10.0)
    assert sp.P == pytest.approx(10.0 * accounted, rel=1e-12)
    assert sp.F == pytest.approx(10.0 * flops, rel=1e-12)


def test_calibrate_multiplier_one_is_the_mean():
    system = empty_system()
    trunk = simple_trunk(system)
    models = [add_model(system, t, trunk, 4, 2) for t in ("a", "b", "c")]
    sp = calibrate(system, 1.0)
    hand_mean = sum(system.accounted_params(m) for m in models) / 3.0
    assert sp.P == pytest.approx(hand_mean, rel=1e-12)


def test_calibrate_three_models_hand_average():
    system = empty_system()
    trunk = simple_trunk(system)
    add_model(system, "a", trunk, 4, 2)
    add_model(system, "b", trunk[:2], 4, 3)
    add_model(system, "c", trunk, 4, 5)
    by_hand_p = sum(system.accounted_params(m) for m in system.models.values()) / 3.0
    by_hand_f = sum(system.inference_flops(m) for m in system.models.values()) / 3.0
    sp = calibrate(system, 10.0)
    assert sp.P == pytest.approx(10.0 * by_hand_p, rel=1e-12)
    assert sp.F == pytest.approx(10.0 * by_hand_f, rel=1e-12)


def test_calibrate_preserves_s_and_flags():
    system = empty_system()
    trunk = simple_trunk(system)
    add_model(system, "a", trunk, 4, 2)
    system.score_params = ScoreParams(s=0.97, P=1.0, F=1.0,
                                      compute_factor_enabled=False)
    sp = calibrate(system, 2.0)
    assert sp.s == 0.97
    assert sp.compute_factor_enabled is False


def test_calibrate_empty_system_errors():
    with pytest.raises(ValueError):
        calibrate(empty_system(), 10.0)
