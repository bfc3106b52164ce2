import math
from dataclasses import FrozenInstanceError, fields

import mpmath as mp
import numpy as np
import pytest

from ifmsim import (
    CorrectedReport,
    DivergenceError,
    E_SQUARED_HEAVISIDE_LORENTZ,
    PollutionConfig,
    ProcessLeg,
    SoftWindow,
    corrected_probabilities,
    mean_photons,
    pollution_probability,
    propagate_analytic,
    square_layout,
    weinberg_factor_fermion,
    weinberg_factor_general,
    with_obstruction,
)
from ifmsim.softphotons import SERIES_BETA_CROSSOVER, _arctanh_over_beta_excess

mp.mp.dps = 50


def _fermion_oracle(beta: float) -> float:
    # independent high-precision route to the same closed form
    b = mp.mpf(beta)
    if b == 0:
        return 0.0
    return float(2 / (2 * mp.pi) ** 2 * (mp.atanh(b) / b - 1))


def test_fermion_factor_against_high_precision_oracle():
    for beta in np.linspace(0.0, 0.9999, 60):
        got = weinberg_factor_fermion(float(beta))
        assert abs(got - _fermion_oracle(float(beta))) < 1e-15


def test_fermion_factor_frozen_value():
    assert abs(weinberg_factor_fermion(0.5) - 0.004995756904766383) < 1e-15


def test_fermion_factor_small_beta_series_branch():
    for beta in (1e-9, 1e-6, 9.9e-5):
        got = weinberg_factor_fermion(beta)
        assert abs(got - _fermion_oracle(beta)) < 1e-24
    # the series branch must join the atanh branch at the crossover: the last
    # series point and the first atanh point both keep their digits
    crossover = SERIES_BETA_CROSSOVER
    for beta in (math.nextafter(crossover, 0.0), crossover):
        expected = _fermion_oracle(beta)
        assert abs(weinberg_factor_fermion(beta) - expected) <= 5e-15 * expected
    # and rise through it. Adjacent doubles differ by less than that tolerance,
    # and the atanh branch is not monotone at that scale, so order is checked
    # 1e-13 apart, where the factor moves by about 5e-13 of itself
    below, at, above = (weinberg_factor_fermion(crossover + d) for d in (-1e-13, 0.0, 1e-13))
    assert 0 < below < at < above


def test_arctanh_excess_keeps_its_digits_on_a_geometric_grid():
    # both branches of arctanh(b)/b - 1, against 50 digits; the cancelling
    # form lost 6e-10 of it just above b = 1e-3
    worst = 0.0
    for beta in np.geomspace(1e-9, 0.9, 4000).tolist():
        b = mp.mpf(beta)
        expected = mp.atanh(b) / b - 1
        got = _arctanh_over_beta_excess(beta)
        worst = max(worst, float(abs((got - expected) / expected)))
    assert worst <= 5e-15


def test_fermion_factor_monotone_in_beta():
    grid = [weinberg_factor_fermion(b) for b in np.linspace(0.0, 0.999, 100)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert grid[0] == 0.0


def test_fermion_factor_divergence_and_domain():
    with pytest.raises(DivergenceError, match="beta"):
        weinberg_factor_fermion(1.0)
    with pytest.raises(DivergenceError):
        weinberg_factor_fermion(1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        weinberg_factor_fermion(-0.1)
    assert issubclass(DivergenceError, ValueError)


def _rest_to_beta_legs(beta):
    legs = [ProcessLeg(charge=1.0, eta=-1, velocity=0.0),
            ProcessLeg(charge=1.0, eta=1, velocity=beta)]
    pairwise = [[0.0, beta], [beta, 0.0]]
    return legs, pairwise


def test_general_reduces_to_fermion_on_grid():
    for beta in np.linspace(0.01, 0.99, 50):
        legs, pairwise = _rest_to_beta_legs(float(beta))
        general = weinberg_factor_general(legs, pairwise)
        assert abs(general - weinberg_factor_fermion(float(beta))) < 1e-12


def _general_oracle(legs, pairwise):
    # the sum as written, diagonal limit 1 included, at 50 digits
    total = 0
    for leg_n, row in zip(legs, pairwise):
        for leg_m, b in zip(legs, row):
            b = mp.mpf(b)
            ratio = 1 if b == 0 else mp.atanh(b) / b
            total += leg_n.charge * leg_m.charge * leg_n.eta * leg_m.eta * ratio
    return float(-total / (2 * mp.pi) ** 2)


@pytest.mark.parametrize("beta", [1e-9, 1e-7, 1e-6, 1e-5, 1e-4])
def test_general_keeps_its_digits_for_slow_legs(beta):
    # adding back the 1 that charge conservation cancels lost every digit here
    legs, pairwise = _rest_to_beta_legs(beta)
    expected = _general_oracle(legs, pairwise)
    assert expected > 0.0
    assert abs(weinberg_factor_general(legs, pairwise) - expected) <= 1e-14 * expected


def test_general_no_velocity_change_radiates_nothing():
    # incoming and outgoing legs with zero relative speed: charges cancel
    legs = [ProcessLeg(1.0, -1, 0.5), ProcessLeg(1.0, 1, 0.5)]
    assert weinberg_factor_general(legs, [[0.0, 0.0], [0.0, 0.0]]) == 0.0


def test_general_validation():
    legs, _ = _rest_to_beta_legs(0.5)
    with pytest.raises(ValueError, match="symmetric"):
        weinberg_factor_general(legs, [[0.0, 0.5], [0.4, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        weinberg_factor_general(legs, [[0.1, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        weinberg_factor_general(legs, [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        weinberg_factor_general(legs, [[0.0, -0.5], [-0.5, 0.0]])
    with pytest.raises(DivergenceError, match="relative speed"):
        weinberg_factor_general(legs, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="at least one"):
        weinberg_factor_general([], [])


@pytest.mark.parametrize("legs", [
    [ProcessLeg(1.0, 1, 0.5)],
    [ProcessLeg(1.0, -1, 0.0), ProcessLeg(1.0, -1, 0.5)],
])
def test_general_refuses_charge_nonconservation(legs):
    # without the check these give A = -0.0253 and -0.106, which only fail
    # later in mean_photons with a message about a negative factor
    pairwise = np.zeros((len(legs), len(legs)))
    with pytest.raises(ValueError, match="charge conservation"):
        weinberg_factor_general(legs, pairwise)


def test_general_refuses_pairwise_speed_beyond_leg_rapidities():
    # a leg at rest and a leg at 0.1 have relative speed 0.1; taking 0.9
    # instead used to return A = 0.0322 against the consistent 1.70e-4
    legs, _ = _rest_to_beta_legs(0.1)
    with pytest.raises(ValueError, match=r"legs 0 and 1: pairwise rapidity"):
        weinberg_factor_general(legs, [[0.0, 0.9], [0.9, 0.0]])
    consistent = weinberg_factor_general(legs, [[0.0, 0.1], [0.1, 0.0]])
    assert consistent == pytest.approx(1.70e-4, rel=1e-3)


@pytest.mark.parametrize("excess, accepted", [(1e-12, True), (3e-12, False)])
def test_general_charge_conservation_edge(excess, accepted):
    # an outgoing pair of charges -1 and 1 + x: the net charge x is held to
    # 1e-12 of sum |q| = 2 + x, so the edge sits at x = 2e-12
    legs = [ProcessLeg(-1.0, 1, 0.0), ProcessLeg(1.0 + excess, 1, 0.5)]
    pairwise = [[0.0, 0.5], [0.5, 0.0]]
    if accepted:
        factor = weinberg_factor_general(legs, pairwise)
        assert factor == pytest.approx(weinberg_factor_fermion(0.5), rel=1e-10)
    else:
        with pytest.raises(ValueError, match="charge conservation"):
            weinberg_factor_general(legs, pairwise)


@pytest.mark.parametrize("offset, accepted", [
    (5e-10, True), (-5e-10, True), (2e-9, False), (-2e-9, False)])
def test_general_rapidity_bound_edge(offset, accepted):
    # a leg at rest and a leg at 0.5 move apart at rapidity exactly
    # atanh(0.5), both ends of the bound; a pairwise speed whose rapidity
    # is off by more than the 1e-9 slack, either way, is refused
    legs, _ = _rest_to_beta_legs(0.5)
    beta = math.tanh(math.atanh(0.5) + offset)
    pairwise = [[0.0, beta], [beta, 0.0]]
    if accepted:
        factor = weinberg_factor_general(legs, pairwise)
        assert factor == pytest.approx(weinberg_factor_fermion(0.5), rel=1e-8)
    else:
        with pytest.raises(ValueError, match=r"legs 0 and 1: pairwise rapidity"):
            weinberg_factor_general(legs, pairwise)


def test_process_leg_validation():
    with pytest.raises(ValueError, match="eta"):
        ProcessLeg(1.0, 0, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        ProcessLeg(1.0, 1, -0.1)
    with pytest.raises(DivergenceError):
        ProcessLeg(1.0, 1, 1.0)


@pytest.mark.parametrize("eta", [True, False, 1.0, -1.0, np.bool_(True)])
def test_process_leg_refuses_non_integer_eta(eta):
    # `True in (-1, 1)` holds, so without the check a bool would pass as +1
    with pytest.raises(ValueError, match="eta must be an integer"):
        ProcessLeg(1.0, eta, 0.5)


def test_process_leg_accepts_numpy_integer_eta():
    leg = ProcessLeg(1.0, np.int64(-1), 0.5)
    assert leg.eta == -1 and type(leg.eta) is int


def test_window_validation():
    with pytest.raises(DivergenceError, match="diverges"):
        SoftWindow(0.0, 1.0)
    with pytest.raises(DivergenceError):
        SoftWindow(-1.0, 1.0)
    with pytest.raises(ValueError, match="upper edge"):
        SoftWindow(1.0, 0.5)
    with pytest.raises(ValueError):
        SoftWindow(1.0, math.inf)
    # equal edges are a legal empty window
    assert SoftWindow(2.0, 2.0).log_ratio == 0.0


@pytest.mark.parametrize("e_minus", [math.nan, math.inf, -math.inf])
def test_window_lower_edge_must_be_finite(e_minus):
    # a lower edge that is not a number is refused as such, not as a divergence
    with pytest.raises(ValueError, match="window lower edge must be finite") as info:
        SoftWindow(e_minus, 1.0)
    assert not isinstance(info.value, DivergenceError)


def test_mean_photons_values():
    a = weinberg_factor_fermion(0.5)
    mu = mean_photons(a, SoftWindow(1e-3, 1.0))
    assert abs(mu - a * math.log(1000.0)) < 1e-16
    assert mean_photons(a, SoftWindow(0.7, 0.7)) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        mean_photons(-0.1, SoftWindow(0.5, 1.0))


def test_log_ratio_of_a_window_wider_than_the_float_range():
    # 1e300 / 1e-300 overflows; the log ratio itself is about 1381.6
    window = SoftWindow(1e-300, 1e300)
    assert window.log_ratio == pytest.approx(600.0 * math.log(10.0), rel=1e-15)
    assert math.isfinite(mean_photons(weinberg_factor_fermion(0.5), window))


def test_mean_photons_doubles_with_log_ratio():
    # ln(4) is exactly 2 ln(2) in floats, so the doubling is exact
    a = 0.3178
    assert math.log(4.0) == 2.0 * math.log(2.0)
    assert mean_photons(a, SoftWindow(1.0, 4.0)) == 2.0 * mean_photons(a, SoftWindow(1.0, 2.0))


def test_pollution_probability_precision():
    config = PollutionConfig(1e-3)
    rate = 1e-12 * 1e-3
    got = pollution_probability(1e-12, config)
    # expm1 keeps the leading term; a naive 1 - exp(-x) would round to 0
    assert abs(got - rate) < 1e-30
    assert pollution_probability(0.0, config) == 0.0
    full = pollution_probability(1.0, PollutionConfig(1.0))
    assert abs(full - (1.0 - 1.0 / math.e)) < 2e-16
    with pytest.raises(ValueError, match="nonnegative"):
        pollution_probability(-0.1, config)


def test_pollution_config_validation():
    with pytest.raises(ValueError, match="solid angle"):
        PollutionConfig(0.0)
    with pytest.raises(ValueError, match="solid angle"):
        PollutionConfig(1.5)


def _bomb_report():
    return propagate_analytic(with_obstruction(square_layout(), "lower"))


def test_corrected_probabilities_books_joint_events():
    report = _bomb_report()
    corrected = corrected_probabilities(report, 1e-5)
    assert isinstance(corrected, CorrectedReport)
    joint = report.p_absorbed * 1e-5
    assert abs(corrected.p_joint - joint) < 1e-20
    assert abs(corrected.p_d1 - (report.p_d1 + joint / 2)) < 1e-20
    assert abs(corrected.p_d2 - (report.p_d2 + joint / 2)) < 1e-20
    assert corrected.p_absorbed == report.p_absorbed
    budget = corrected.p_d1 + corrected.p_d2 + corrected.p_absorbed - corrected.p_joint
    assert abs(budget - 1.0) < 1e-12
    # input untouched
    assert abs(report.p_d1 - 0.25) < 1e-12


def test_corrected_probabilities_validation():
    report = _bomb_report()
    with pytest.raises(ValueError, match="pollution"):
        corrected_probabilities(report, 1.2)


def test_pollution_limit_regimes():
    # negligible regime
    config = PollutionConfig(1e-3)
    pollution = pollution_probability(0.01, config)
    corrected = corrected_probabilities(_bomb_report(), pollution)
    assert abs(corrected.p_d2 - 0.25) / 0.25 < 1e-3
    # runaway regime: window lower edge pushed toward zero
    a = weinberg_factor_fermion(0.9999)
    pollutions = [
        pollution_probability(mean_photons(a, SoftWindow(e_minus, 1.0)),
                              PollutionConfig(1.0))
        for e_minus in (1e-5, 1e-50, 1e-300)
    ]
    assert pollutions[0] < pollutions[1] < pollutions[2]
    assert pollutions[2] > 1.0 - 1e-12


def test_heaviside_lorentz_coupling_constant():
    assert abs(E_SQUARED_HEAVISIDE_LORENTZ - 4 * math.pi / 137.035999) < 1e-18
    assert abs(E_SQUARED_HEAVISIDE_LORENTZ - 0.0917012369) < 1e-9


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, parameter", [
    (lambda: weinberg_factor_fermion(NAN), "beta"),
    (lambda: mean_photons(NAN, SoftWindow(1e-3, 1.0)), "emission factor"),
    (lambda: mean_photons(INF, SoftWindow(1e-3, 1.0)), "emission factor"),
    (lambda: pollution_probability(NAN, PollutionConfig(0.5)), "mean photon count"),
    (lambda: pollution_probability(INF, PollutionConfig(0.5)), "mean photon count"),
    (lambda: ProcessLeg(charge=1.0, eta=1, velocity=NAN), "leg velocity"),
    (lambda: ProcessLeg(charge=NAN, eta=1, velocity=0.5), "leg charge"),
    (lambda: ProcessLeg(charge=INF, eta=1, velocity=0.5), "leg charge"),
], ids=["fermion-beta", "factor-nan", "factor-inf", "mu-nan", "mu-inf", "leg-velocity",
        "leg-charge-nan", "leg-charge-inf"])
def test_non_finite_inputs_refused_naming_the_parameter(call, parameter):
    with pytest.raises(ValueError, match=parameter):
        call()


@pytest.mark.parametrize("value", [ProcessLeg(1.0, 1, 0.5), SoftWindow(0.001, 1.0),
                                   PollutionConfig(0.5)], ids=lambda v: type(v).__name__)
def test_soft_values_are_frozen(value):
    # a field set after construction would skip the checks in __post_init__
    before = repr(value)
    for field in fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field.name, -3.0)
    assert repr(value) == before
