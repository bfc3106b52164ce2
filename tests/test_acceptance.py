"""Acceptance gate: ten numbered criteria, one test each.

Each test prints a single [PASS] line when its criterion holds; a failed
assertion leaves the line unprinted and fails the test. Tolerances are
pinned in the assertions, not configurable.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ifmsim import (
    DivergenceError,
    GaussianPacket,
    PhotonMode,
    PollutionConfig,
    ProcessLeg,
    SoftWindow,
    build_space,
    commutator_preservation_check,
    corrected_probabilities,
    locality_check,
    mean_photons,
    packet_overlap,
    parse_layout,
    pollution_probability,
    propagate_analytic,
    rotation_check,
    run_shots,
    serialize_layout,
    shot_batches,
    square_layout,
    weinberg_factor_fermion,
    weinberg_factor_general,
    with_obstruction,
)
from ifmsim.data import BUNDLED_LAYOUTS, read_text


def test_criterion_01_empty_square_bright_port():
    start = time.perf_counter()
    report = propagate_analytic(square_layout())
    elapsed = time.perf_counter() - start
    assert abs(report.p_d1 - 1.0) < 1e-12
    assert abs(report.p_d2 - 0.0) < 1e-12
    assert abs(report.p_absorbed - 0.0) < 1e-12
    assert abs(report.amplitude_d1 - (-1.0)) < 1e-12
    assert elapsed < 1.0
    print("[PASS] criterion 1: empty square gives (1, 0, 0) with amplitude -1")


def test_criterion_02_full_obstruction_quarters():
    start = time.perf_counter()
    report = propagate_analytic(with_obstruction(square_layout(), "lower", 1.0))
    elapsed = time.perf_counter() - start
    assert abs(report.p_d1 - 0.25) < 1e-12
    assert abs(report.p_d2 - 0.25) < 1e-12
    assert abs(report.p_absorbed - 0.5) < 1e-12
    assert elapsed < 1.0
    print("[PASS] criterion 2: obstructed square gives (1/4, 1/4, 1/2)")


def test_criterion_03_dark_port_momentum_rotated_not_scaled():
    layout = square_layout()
    report = propagate_analytic(layout)
    p = layout.source.momentum
    assert abs(np.linalg.norm(report.momentum_d2) - np.linalg.norm(p)) < 1e-12
    composed = (
        layout.elements["L22"].reflection.matrix
        @ layout.elements["L21"].reflection.matrix
        @ layout.elements["L11"].reflection.matrix
    )
    assert np.linalg.norm(report.momentum_d2 - composed @ p) < 1e-12
    print("[PASS] criterion 3: dark-port momentum is the composed reflection "
          "of the source momentum at equal magnitude")


def test_criterion_04_shot_statistics_reproducible_and_batch_invariant():
    layout = with_obstruction(square_layout(), "lower", 1.0)
    n = 100_000
    start = time.perf_counter()
    counts = run_shots(layout, n, seed=42)
    elapsed = time.perf_counter() - start

    sigma_quarter = math.sqrt(n * 0.25 * 0.75)
    sigma_half = math.sqrt(n * 0.5 * 0.5)
    assert abs(counts.d1 - n / 4) <= 3.0 * sigma_quarter
    assert abs(counts.d2 - n / 4) <= 3.0 * sigma_quarter
    assert abs(counts.absorbed - n / 2) <= 3.0 * sigma_half

    again = run_shots(layout, n, seed=42)
    assert (again.d1, again.d2, again.absorbed) == (
        counts.d1, counts.d2, counts.absorbed)

    # tallies do not depend on how the run is carved into batches
    for batch_size in (1, 7, 4096, n):
        d1 = d2 = absorbed = 0
        for _, batch in shot_batches(layout, n, 42, batch_size):
            d1 += batch.d1
            d2 += batch.d2
            absorbed += batch.absorbed
        assert (d1, d2, absorbed) == (counts.d1, counts.d2, counts.absorbed)

    assert elapsed < 5.0
    print("[PASS] criterion 4: 1e5 shots sit within 3 sigma, bit-reproducible, "
          "batch-size invariant")


def test_criterion_05_truncated_space_residuals():
    start = time.perf_counter()
    space = build_space(("p", "q"), n_max=6)
    for alpha in (math.pi / 7, math.pi / 4, math.pi / 2):
        assert rotation_check(space, ("p", "q"), alpha) < 1e-9
        assert commutator_preservation_check(space, ("p", "q"), alpha) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print("[PASS] criterion 5: occupation-capped rotation residuals below "
          "1e-9 and commutator residuals below 1e-10")


def test_criterion_06_branch_independence_certificate():
    carrier = PhotonMode(momentum=[1.0, 0.0, 0.0], polarization=[0.0, 0.0, 1.0])
    sigma = 0.05
    here = GaussianPacket(center=[0.0, 0.0, 0.0], width=sigma, carrier=carrier)
    far = GaussianPacket(center=[8.0 * sigma, 0.0, 0.0], width=sigma,
                         carrier=carrier)
    overlap = packet_overlap(here, far)
    assert overlap < 1.2e-7
    assert overlap == pytest.approx(math.exp(-16.0), rel=1e-14, abs=0)
    assert locality_check(here, far)
    assert not locality_check(here, here)
    print("[PASS] criterion 6: 8 sigma separation overlaps below 1.2e-7 "
          "(exp(-16)); zero separation fails the independence check")


def test_criterion_07_emission_factor_and_window_scaling():
    assert abs(weinberg_factor_fermion(0.5) - 0.0049958) < 1e-7

    legs = [ProcessLeg(charge=1.0, eta=-1, velocity=0.0)]
    for beta in np.linspace(0.01, 0.97, 50):
        pair = legs + [ProcessLeg(charge=1.0, eta=1, velocity=float(beta))]
        pairwise = [[0.0, float(beta)], [float(beta), 0.0]]
        general = weinberg_factor_general(pair, pairwise)
        assert abs(general - weinberg_factor_fermion(float(beta))) < 1e-12

    factor = weinberg_factor_fermion(0.5)
    mu_single = mean_photons(factor, SoftWindow(1.0, 2.0))
    mu_double = mean_photons(factor, SoftWindow(1.0, 4.0))
    assert mu_double == 2.0 * mu_single  # log(4) is exactly 2 log(2)
    print("[PASS] criterion 7: emission factor matches the oracle at beta 0.5, "
          "the general form reduces to it, and the mean count doubles with "
          "the log window")


def test_criterion_08_divergent_inputs_refused():
    for beta in (1.0, 1.5):
        with pytest.raises(DivergenceError):
            weinberg_factor_fermion(beta)
        with pytest.raises(DivergenceError):
            ProcessLeg(charge=1.0, eta=1, velocity=beta)
    for e_minus in (0.0, -1.0):
        with pytest.raises(DivergenceError):
            SoftWindow(e_minus, 1.0)
    print("[PASS] criterion 8: unit speed and a vanishing lower threshold "
          "both raise the divergence error")


def test_criterion_09_pollution_regimes():
    baseline = propagate_analytic(with_obstruction(square_layout(), "lower", 1.0))

    # dilute regime: tiny mean count through a small acceptance
    pollution = pollution_probability(0.01, PollutionConfig(1e-3))
    corrected = corrected_probabilities(baseline, pollution)
    relative = abs(corrected.p_d2 - baseline.p_d2) / baseline.p_d2
    assert relative < 1e-3

    # runaway regime: as the lower threshold collapses the window log
    # explodes and every shot is polluted
    factor = weinberg_factor_fermion(0.9999)
    config = PollutionConfig(1.0)
    previous = -1.0
    final = 0.0
    for e_minus in (1e-5, 1e-50, 1e-300):
        mu = mean_photons(factor, SoftWindow(e_minus, 1.0))
        final = pollution_probability(mu, config)
        assert final >= previous
        previous = final
    assert final > 1.0 - 1e-12
    print("[PASS] criterion 9: mu 0.01 with f 1e-3 shifts the dark port by "
          "under 0.1% relative; a collapsing lower threshold drives "
          "pollution to 1")


def test_criterion_10_layout_text_round_trip_and_diagnostics(tmp_path):
    for name in BUNDLED_LAYOUTS:
        text = read_text(name)
        document = parse_layout(text)
        assert document.diagnostics == []
        assert serialize_layout(document.layout) == text

    bad = read_text("mzi.ifm").replace(
        "mirror L12 normal 0.70710678118654746 -0.70710678118654746 0",
        "mirror L12 normal 0 0 0")
    target = tmp_path / "degenerate.ifm"
    target.write_text(bad, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "ifmsim.cli", "simulate", str(target)],
        capture_output=True, text=True, encoding="utf-8")
    assert result.returncode == 1
    assert f"{target}:6:19: error: degenerate normal" in result.stderr
    print("[PASS] criterion 10: bundled layouts round-trip byte for byte; a "
          "degenerate normal yields a positioned diagnostic and exit code 1")
