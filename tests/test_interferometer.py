import copy
import math
import pickle
import tracemalloc
import warnings
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

from ifmsim import (
    Arm,
    ConfigurationError,
    ElementKind,
    Layout,
    Obstruction,
    OpticalElement,
    PhotonMode,
    build_space,
    fringe_scan,
    householder,
    interferometer,
    propagate_analytic,
    run_shots,
    shot_batches,
    square_layout,
    v_unitary,
    with_obstruction,
)
from ifmsim.optics import GaussianPacket, HouseholderReflection

ORACLE_HALF_EFFICIENCY = (0.25, 0.7285533905932738, 0.021446609406726238)


def test_empty_square_bright_and_dark_ports(square):
    report = propagate_analytic(square)
    assert abs(report.p_d1 - 1.0) < 1e-12
    assert report.p_d2 < 1e-12
    assert report.p_absorbed == 0.0
    assert report.event is None
    # output amplitude is -1 relative to free flight over the same distance
    assert abs(report.amplitude_d1 - (-1.0)) < 1e-12


def test_detector_momenta(square):
    report = propagate_analytic(square)
    p = square.source.momentum
    np.testing.assert_allclose(report.momentum_d1, p, atol=1e-12)
    composed = (
        square.elements["L22"].reflection.matrix
        @ square.elements["L21"].reflection.matrix
        @ square.elements["L11"].reflection.matrix
    )
    np.testing.assert_allclose(report.momentum_d2, composed @ p, atol=1e-12)
    # same thing as the single mirror reflection on this geometry
    np.testing.assert_allclose(
        report.momentum_d2, square.elements["L12"].reflection.matrix @ p, atol=1e-12
    )
    assert abs(np.linalg.norm(report.momentum_d2) - np.linalg.norm(p)) < 1e-12


@pytest.mark.parametrize("arm", ["lower", "upper"])
def test_full_obstruction_quarters(square, arm):
    report = propagate_analytic(with_obstruction(square, arm))
    assert abs(report.p_d1 - 0.25) < 1e-12
    assert abs(report.p_d2 - 0.25) < 1e-12
    assert abs(report.p_absorbed - 0.5) < 1e-12
    assert report.event is not None
    assert report.event.arm == arm
    assert abs(report.event.absorbed_weight - 0.5) < 1e-12


def test_obstruction_event_position(square):
    report = propagate_analytic(with_obstruction(square, "lower"))
    np.testing.assert_allclose(report.event.position, [0.5, 0.0, 0.0], atol=1e-15)


def test_half_efficiency_oracle_values(square):
    report = propagate_analytic(with_obstruction(square, "lower", 0.5))
    p_abs, p_d1, p_d2 = ORACLE_HALF_EFFICIENCY
    assert abs(report.p_absorbed - p_abs) < 1e-12
    assert abs(report.p_d1 - p_d1) < 1e-12
    assert abs(report.p_d2 - p_d2) < 1e-12


def test_zero_efficiency_is_transparent(square):
    report = propagate_analytic(with_obstruction(square, "lower", 0.0))
    assert abs(report.p_d1 - 1.0) < 1e-12
    assert report.event is not None and report.event.absorbed_weight == 0.0


def test_probability_conservation_over_efficiencies(square):
    for arm in ("lower", "upper"):
        for eff in np.linspace(0.0, 1.0, 21):
            report = propagate_analytic(with_obstruction(square, arm, float(eff)))
            total = report.p_d1 + report.p_d2 + report.p_absorbed
            assert abs(total - 1.0) < 1e-12


def test_with_obstruction_leaves_original_alone(square):
    blocked = with_obstruction(square, "upper", 0.7)
    assert square.obstruction is None
    assert blocked.obstruction == Obstruction("upper", 0.7)
    assert blocked is not square


def test_with_obstruction_validation(square):
    with pytest.raises(ConfigurationError, match="input-side"):
        with_obstruction(square, "lower_exit")
    with pytest.raises(ConfigurationError, match="lower"):
        # the error lists the valid labels
        with_obstruction(square, "nowhere")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        with_obstruction(square, "lower", 1.5)


def test_fock_chain_reproduces_empty_square(two_mode_space):
    """Independent route: the truncated-space rotations for splitter,
    mirror, splitter composed on |1 photon, mode p> must give back the
    engine's -1 amplitude on the same mode."""
    space = two_mode_space
    chain = (
        v_unitary(space, ("p", "q"), math.pi / 4)
        @ v_unitary(space, ("p", "q"), math.pi / 2)
        @ v_unitary(space, ("p", "q"), math.pi / 4)
    )
    one_p = np.zeros(space.dim, dtype=complex)
    one_p[space.index_of((1, 0))] = 1.0
    out = chain @ one_p
    assert np.linalg.norm(out + one_p) < 1e-12

    engine = propagate_analytic(square_layout())
    assert abs(out[space.index_of((1, 0))] - engine.amplitude_d1) < 1e-12


@pytest.mark.parametrize("efficiency", [1.0, 0.5, 0.25])
def test_fock_chain_with_absorber_matches_engine(two_mode_space, efficiency):
    # Kraus damping of the blocked mode between splitter and mirror,
    # built directly in the truncated space
    space = two_mode_space
    pair = ("p", "q")
    i_p = space.index_of((1, 0))
    state = np.zeros(space.dim, dtype=complex)
    state[i_p] = 1.0
    state = v_unitary(space, pair, math.pi / 4) @ state
    absorbed = efficiency * abs(state[i_p]) ** 2
    state[i_p] *= math.sqrt(1.0 - efficiency)
    state = v_unitary(space, pair, math.pi / 4) @ v_unitary(space, pair, math.pi / 2) @ state

    engine = propagate_analytic(with_obstruction(square_layout(), "lower", efficiency))
    assert abs(absorbed - engine.p_absorbed) < 1e-12
    assert abs(abs(state[i_p]) ** 2 - engine.p_d1) < 1e-12
    assert abs(abs(state[space.index_of((0, 1))]) ** 2 - engine.p_d2) < 1e-12


def test_fock_chain_with_path_mismatch_matches_kernel(two_mode_space):
    """Compose splitter, a phase on mode p (the L11->L12 branch), mirror and
    splitter in the truncated space; the engine's port powers over a fringe
    scan and its complex D1 amplitude on a lengthened arm must agree."""
    space = two_mode_space
    pair = ("p", "q")
    p_mag = 1.7
    splitter = v_unitary(space, pair, math.pi / 4)
    mirror = v_unitary(space, pair, math.pi / 2)
    i_p, i_q = space.index_of((1, 0)), space.index_of((0, 1))
    one_p = np.zeros(space.dim, dtype=complex)
    one_p[i_p] = 1.0
    n_p = space.occupations[:, space.mode_position("p")]

    square = square_layout(momentum_magnitude=p_mag)
    for delta_l, p_d1, p_d2 in fringe_scan(square, (0.0, 4.0), 9):
        phase = np.diag(np.exp(1j * p_mag * delta_l * n_p))
        out = splitter @ phase @ mirror @ splitter @ one_p
        assert abs(abs(out[i_p]) ** 2 - p_d1) < 1e-12
        assert abs(abs(out[i_q]) ** 2 - p_d2) < 1e-12

        layout = square_layout(momentum_magnitude=p_mag)
        lower = layout.arms[("L11", "L12")]
        lengthened = replace(lower, length=lower.length + delta_l)
        layout = replace(layout, arms={**layout.arms, ("L11", "L12"): lengthened})
        assert abs(propagate_analytic(layout).amplitude_d1 - out[i_p]) < 1e-12


def test_unequal_exit_arm_acts_like_mismatch():
    # lengthening one exit arm by d shifts the relative phase by |p| d
    d = 0.37
    layout = square_layout()
    lengthened = replace(layout.arms[("L12", "L22")], length=1.0 + d)
    layout = replace(layout, arms={**layout.arms, ("L12", "L22"): lengthened})
    report = propagate_analytic(layout)
    assert abs(report.p_d1 - math.cos(d / 2.0) ** 2) < 1e-12


def test_fringe_scan_cosine_law(square):
    p_mag = square.source.energy
    rows = fringe_scan(square, (0.0, 2.0 * math.pi), 33)
    assert rows.shape == (33, 3)
    for delta_l, p_d1, p_d2 in rows:
        expected = math.cos(p_mag * delta_l / 2.0) ** 2
        assert abs(p_d1 - expected) < 1e-12
        assert abs(p_d1 + p_d2 - 1.0) < 1e-12
    assert rows[0][1] == propagate_analytic(square).p_d1


@pytest.mark.parametrize("steps", [10.9, 10.0, True])
def test_fringe_scan_refuses_non_integer_steps(square, steps):
    with pytest.raises(ValueError, match="steps must be an integer"):
        fringe_scan(square, (0.0, 1.0), steps)


def test_fringe_scan_accepts_numpy_integer_steps(square):
    np.testing.assert_array_equal(fringe_scan(square, (0.0, 1.0), np.int64(10)),
                                  fringe_scan(square, (0.0, 1.0), 10))


def test_fringe_scan_validation(square, bomb_layout):
    with pytest.raises(ConfigurationError, match="unobstructed"):
        fringe_scan(bomb_layout, (0.0, 1.0), 5)
    with pytest.raises(ValueError, match="steps"):
        fringe_scan(square, (0.0, 1.0), 1)
    with pytest.raises(ValueError, match="finite"):
        fringe_scan(square, (0.0, math.inf), 5)


def test_locality_certification_gates_propagation():
    wide = square_layout(width=10.0)
    with pytest.raises(ConfigurationError, match="overlap"):
        propagate_analytic(wide)
    # same geometry passes once the packets are narrow
    propagate_analytic(square_layout(width=0.05))
    # or with a tolerance loose enough to accept the overlap
    propagate_analytic(wide, locality_tolerance=0.9999)


def test_misaligned_source_rejected(square):
    diag = 1.0 / math.sqrt(2.0)
    with pytest.raises(ConfigurationError, match="exactly one arm"):
        replace(square, source=PhotonMode((diag, diag, 0.0), (0.0, 0.0, 1.0)))


def test_bad_splitter_normal_rejected(square):
    from ifmsim import ElementKind, OpticalElement, householder

    elements = dict(square.elements)
    # normal along x reflects the beam straight back instead of up
    elements["L11"] = OpticalElement(ElementKind.BEAMSPLITTER, householder((1.0, 0.0, 0.0)))
    with pytest.raises(ConfigurationError, match="steer"):
        replace(square, elements=elements)


@pytest.mark.parametrize("change, at", [
    ({"elements": {"L12": (ElementKind.MIRROR, (1.0, 0.0, 0.0))}}, ("element", "L12")),
    ({"elements": {"L11": (ElementKind.BEAMSPLITTER, (1.0, 0.0, 0.0))}}, ("element", "L11")),
    ({"elements": {"L22": (ElementKind.BEAMSPLITTER, (1.0, 0.0, 0.0))}}, ("element", "L22")),
    ({"source": (1.0, 1.0, 0.0)}, ("source", None)),
    ({"vertices": {"L22": (1.0, 0.0, 0.0)}}, ("vertex", "L22")),
])
def test_geometry_checked_once_on_construction(square, change, at):
    # each mis-steering is refused when the layout is built, naming its directive
    elements = dict(square.elements)
    for vid, (kind, normal) in change.get("elements", {}).items():
        elements[vid] = OpticalElement(kind, householder(normal))
    vertices = {**square.vertices, **change.get("vertices", {})}
    source = PhotonMode(change.get("source", square.source.momentum), (0.0, 0.0, 1.0))
    with pytest.raises(ConfigurationError) as caught:
        Layout(vertices, elements, square.arms, source, 0.05)
    assert caught.value.at == at


@pytest.mark.parametrize("vid, value", [("L12", math.nan), ("L21", math.inf),
                                        ("L11", -math.inf)])
def test_non_finite_vertex_named_before_steering(square, vid, value):
    position = np.array(square.vertices[vid])
    position[1] = value
    message = f"vertex {vid} position must be a finite 3-vector"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=message) as caught:
            replace(square, vertices={**square.vertices, vid: position})
    assert caught.value.at == ("vertex", vid)


def _reachable_arrays(value, path="layout"):
    """(path, array) for every numpy array reachable from value."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif is_dataclass(value):
        for item in fields(value):
            yield from _reachable_arrays(getattr(value, item.name), f"{path}.{item.name}")
    elif isinstance(value, Mapping):
        for key, item in value.items():
            yield from _reachable_arrays(item, f"{path}[{key!r}]")
    elif isinstance(value, tuple):
        for index, item in enumerate(value):
            yield from _reachable_arrays(item, f"{path}[{index}]")


def _accepts_write(array):
    try:
        array[...] = array  # a write that leaves a writable array as it was
    except ValueError:
        return False
    return True


def test_built_layout_is_immutable(square):
    with pytest.raises(TypeError):
        square.arms[("L11", "L12")] = Arm(2.0, "lower")
    with pytest.raises(ValueError):
        square.vertices["L12"][0] = 5.0
    with pytest.raises(FrozenInstanceError):
        square.source = PhotonMode((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(FrozenInstanceError):
        square.arms[("L11", "L12")].length = 2.0
    # so is every array the layout reaches
    with pytest.raises(ValueError):
        square.source.momentum[:] = (2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        square.elements["L11"].reflection.normal[:] = (1.0, 0.0, 0.0)
    arrays = dict(_reachable_arrays(square))
    assert {"layout.source.polarization", "layout.elements['L22'].reflection.matrix",
            "layout._geometry[1][0].center"} <= set(arrays)
    assert [path for path, array in arrays.items() if _accepts_write(array)] == []
    # the layout keeps a copy of each position it was given
    position = np.array([1.0, 0.0, 0.0])
    layout = replace(square, vertices={**square.vertices, "L12": position})
    position[0] = 5.0
    assert layout.vertices["L12"][0] == 1.0
    assert propagate_analytic(layout).p_d1 == propagate_analytic(square).p_d1


def _copies(value):
    yield "pickle", pickle.loads(pickle.dumps(value))
    yield "deepcopy", copy.deepcopy(value)


def test_values_survive_pickle_and_deepcopy(square):
    layout = with_obstruction(replace(square, detectors={"D1": "b", "D2": "a"}), "lower", 0.5)
    mode = layout.source
    values = [mode, layout.elements["L11"].reflection,
              GaussianPacket((0.5, 0.0, 0.0), 0.05, mode), layout]
    for value in values:
        for how, again in _copies(value):
            assert type(again) is type(value) and again == value, how
            # rebuilt through the constructor, so the arrays are read-only again
            writable = [path for path, array in _reachable_arrays(again) if _accepts_write(array)]
            assert writable == [], (how, writable)
    expected = propagate_analytic(layout)
    for how, again in _copies(layout):
        assert again.detectors == {"D1": "b", "D2": "a"}
        report = propagate_analytic(again)
        assert report.p_d2 == expected.p_d2 and report.p_absorbed == expected.p_absorbed
        assert (report.p_d1, report.amplitude_d1) == (expected.p_d1, expected.amplitude_d1)
        np.testing.assert_array_equal(report.momentum_d1, expected.momentum_d1)
        np.testing.assert_array_equal(report.momentum_d2, expected.momentum_d2)
        assert report.event.arm == expected.event.arm


def test_report_does_not_alias_the_layout(bomb_layout):
    first = propagate_analytic(bomb_layout)
    momenta = first.momentum_d1.copy(), first.momentum_d2.copy()
    position = first.event.position.copy()
    first.momentum_d1[:] = 7.0
    first.momentum_d2[:] = 7.0
    first.event.position[:] = 7.0
    again = propagate_analytic(bomb_layout)
    np.testing.assert_array_equal(again.momentum_d1, momenta[0])
    np.testing.assert_array_equal(again.momentum_d2, momenta[1])
    np.testing.assert_array_equal(again.event.position, position)


def test_layout_validation_errors(square):
    with pytest.raises(ConfigurationError, match="missing vertex"):
        vertices = {k: v for k, v in square.vertices.items() if k != "L21"}
        Layout(vertices, square.elements, square.arms, square.source, 0.05)
    with pytest.raises(ConfigurationError, match="needs a beamsplitter"):
        elements = dict(square.elements)
        elements["L12"], elements["L11"] = elements["L11"], elements["L12"]
        Layout(square.vertices, elements, square.arms, square.source, 0.05)
    with pytest.raises(ConfigurationError, match="missing arm"):
        arms = {k: v for k, v in square.arms.items() if k != ("L12", "L22")}
        Layout(square.vertices, square.elements, arms, square.source, 0.05)
    with pytest.raises(ConfigurationError, match="unique"):
        arms = dict(square.arms)
        arms[("L12", "L22")] = replace(arms[("L12", "L22")], label="upper")
        Layout(square.vertices, square.elements, arms, square.source, 0.05)
    with pytest.raises(ConfigurationError, match="width"):
        Layout(square.vertices, square.elements, square.arms, square.source, 0.0)
    with pytest.raises(ConfigurationError, match="ports a and b"):
        Layout(square.vertices, square.elements, square.arms, square.source, 0.05,
               detectors={"D1": "a", "D2": "a"})


def test_layout_names_a_missing_piece(square):
    vertices = {k: v for k, v in square.vertices.items() if k != "L21"}
    with pytest.raises(ConfigurationError, match="missing vertex L21") as err:
        replace(square, vertices=vertices)
    assert err.value.at == ("vertex", "L21")
    arms = {k: v for k, v in square.arms.items() if k != ("L12", "L22")}
    with pytest.raises(ConfigurationError, match="missing arm L12->L22") as err:
        replace(square, arms=arms)
    assert err.value.at == ("arm", ("L12", "L22"))
    with pytest.raises(ConfigurationError, match="missing source") as err:
        replace(square, source=None)
    assert err.value.at == ("source", None)


def test_layout_refuses_pieces_off_the_square(square):
    extra = OpticalElement(ElementKind.MIRROR, householder((1.0, 0.0, 0.0)))
    with pytest.raises(ConfigurationError, match="unexpected element at vertex 'X9'") as err:
        replace(square, elements={**square.elements, "X9": extra})
    assert err.value.at == ("element vertex", "X9")
    diagonal = Arm(1.0, "diagonal")
    with pytest.raises(ConfigurationError, match="L12->L21 is not part of the square") as err:
        replace(square, arms={**square.arms, ("L12", "L21"): diagonal})
    assert err.value.at == ("arm", ("L12", "L21"))


def test_arm_length_must_be_positive():
    with pytest.raises(ConfigurationError, match="positive length"):
        Arm(0.0, "lower")


def test_square_layout_argument_validation():
    with pytest.raises(ValueError):
        square_layout(arm_length=0.0)
    with pytest.raises(ValueError):
        square_layout(momentum_magnitude=-1.0)


def test_shots_all_bright_without_obstruction(square):
    counts = run_shots(square, 1000, seed=7)
    assert (counts.d1, counts.d2, counts.absorbed) == (1000, 0, 0)


def test_shots_reproducible_and_chunk_invariant(bomb_layout, monkeypatch):
    baseline = run_shots(bomb_layout, 20_000, seed=123)
    assert baseline.total == 20_000
    assert run_shots(bomb_layout, 20_000, seed=123) == baseline
    for chunk in (1, 13, 999, 20_000, 1 << 20):
        monkeypatch.setattr(interferometer, "SHOT_CHUNK", chunk)
        again = run_shots(bomb_layout, 20_000, seed=123)
        assert again == baseline
    assert run_shots(bomb_layout, 20_000, seed=124) != baseline


def test_shot_batches_merge_to_totals(bomb_layout):
    total = run_shots(bomb_layout, 5_000, seed=9)
    rows = shot_batches(bomb_layout, 5_000, seed=9, batch_size=777)
    assert [start for start, _ in rows] == list(range(0, 5_000, 777))
    assert sum(c.d1 for _, c in rows) == total.d1
    assert sum(c.d2 for _, c in rows) == total.d2
    assert sum(c.absorbed for _, c in rows) == total.absorbed


def test_shots_validation(square):
    with pytest.raises(ValueError, match="positive"):
        run_shots(square, 0, seed=1)
    with pytest.raises(ValueError, match="batch size"):
        shot_batches(square, 10, seed=1, batch_size=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_shots_refuse_seed_outside_64_bits(square, seed):
    # a key masked to 64 bits would alias -1 with 2**64 - 1 and 2**64 + 5 with 5
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        shot_batches(square, 10, seed, batch_size=4)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        run_shots(square, 10, seed)


@pytest.mark.parametrize("call, name", [
    (lambda layout: run_shots(layout, 1000, 5.5), "seed"),
    (lambda layout: run_shots(layout, 1000, True), "seed"),
    (lambda layout: run_shots(layout, 1000.9, 5), "shot count"),
    (lambda layout: shot_batches(layout, 1000, 5, 16.5), "batch size"),
    (lambda layout: shot_batches(layout, np.float64(1000.0), 5, 16), "shot count"),
], ids=["float-seed", "bool-seed", "float-count", "float-batch", "numpy-float-count"])
def test_shots_refuse_non_integer_arguments(bomb_layout, call, name):
    # truncation would alias them: seed 5.5 would draw seed 5's tallies
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(bomb_layout)


def test_shots_accept_numpy_integers(bomb_layout):
    counts = run_shots(bomb_layout, np.int64(1000), np.uint64(5))
    assert counts == run_shots(bomb_layout, 1000, 5)
    rows = shot_batches(bomb_layout, np.int16(1000), np.int64(5), np.uint8(16))
    assert rows == shot_batches(bomb_layout, 1000, 5, 16)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_shots_accept_seed_range_ends(bomb_layout, seed):
    assert run_shots(bomb_layout, 1000, seed).total == 1000


@pytest.mark.parametrize("efficiency, variant", [
    pytest.param(0.6, None, id="0.6"),
    pytest.param(None, None, id="None"),
    pytest.param(1.0, None, id="1.0"),
    # p_d1 = 4.9e-32 gives L = ceil(p_d1 2**53) = 1, so only words below 2**11
    # reach D1, and p_d1 + p_d2 = 1.0 gives the L = 2**53 that admits every word
    pytest.param(None, "swapped", id="swapped"),
    # no layout gives p_d1 = 0 exactly, the L = 0 that admits no word
    pytest.param(0.6, "no-d1", id="no-d1"),
])
def test_shot_stream_contract_from_first_principles(square, efficiency, variant, monkeypatch):
    # shot s reads word s of the plain Philox random_raw stream keyed by the
    # seed, and lands in D1, D2 or the absorber by u = (w >> 11) 2**-53
    layout = square if efficiency is None else with_obstruction(square, "lower", efficiency)
    if variant == "swapped":
        layout = replace(layout, detectors={"D1": "b", "D2": "a"})
    elif variant == "no-d1":
        emptied = replace(propagate_analytic(layout), p_d1=0.0)
        monkeypatch.setattr(interferometer, "propagate_analytic", lambda _: emptied)
    n, seed = 2 * 65536 + 5, 2024
    report = interferometer.propagate_analytic(layout)
    t1, t2 = report.p_d1, report.p_d1 + report.p_d2
    u = (np.random.Philox(key=seed).random_raw(n) >> np.uint64(11)) * 2.0**-53
    outcome = (u >= t1).astype(np.int64) + (u >= t2)
    # running (d1, d2, absorbed) tallies over shots 0..s-1, for s = 0..n
    upto = np.vstack(([0, 0, 0], np.cumsum(np.eye(3, dtype=np.int64)[outcome], axis=0)))
    whole = tuple(upto[n].tolist())
    if efficiency is None and variant is None:
        assert t2 == 1.0 and whole == (n, 0, 0)
    if variant == "swapped":
        assert 0.0 < t1 * 2.0**53 <= 1.0 and t2 == 1.0 and whole == (0, n, 0)
    if variant == "no-d1":
        assert t1 == 0.0 and whole[0] == 0 < whole[1]
    # windows of 999 and 4097 shots start off multiples of 4
    with monkeypatch.context() as chunked:
        for chunk in (999, 4097, n):
            chunked.setattr(interferometer, "SHOT_CHUNK", chunk)
            counts = run_shots(layout, n, seed)
            assert (counts.d1, counts.d2, counts.absorbed) == whole
    # batches of 3 and 5 start off multiples of 4, 100 000 spans two windows,
    # and 65 536 and 65 537 end on and just past a window's edge
    for batch_size in (1, 3, 5, 4096, 100_000, 65536, 65537):
        rows = shot_batches(layout, n, seed, batch_size)
        starts = np.arange(0, n, batch_size)
        assert [start for start, _ in rows] == starts.tolist()
        got = [(c.d1, c.d2, c.absorbed) for _, c in rows]
        expected = upto[np.minimum(starts + batch_size, n)] - upto[starts]
        assert got == [tuple(row) for row in expected.tolist()]


def test_shot_thresholds_split_words_exactly_at_their_edges(bomb_layout, monkeypatch):
    # a word w lands below t when u = (w >> 11) 2**-53 < t; feed the sampler
    # the words on either side of each threshold's edge and both ends of 64 bits
    report = propagate_analytic(bomb_layout)
    t1, t2 = report.p_d1, report.p_d1 + report.p_d2
    edges = [math.ceil(t * 2.0**53) << 11 for t in (t1, t2)]
    words = np.array([0, 2**64 - 1] + [e + d for e in edges for d in (-1, 0, 1)],
                     dtype=np.uint64)
    u = (words >> np.uint64(11)) * 2.0**-53
    assert all(u[u < t].max() < t <= u[u >= t].min() for t in (t1, t2))
    outcome = (u >= t1).astype(np.int64) + (u >= t2)

    class Words:
        def __init__(self, key):
            self.left = words

        def random_raw(self, size):
            out, self.left = self.left[:size].copy(), self.left[size:]
            return out

    monkeypatch.setattr(np.random, "Philox", Words)
    monkeypatch.setattr(interferometer, "SHOT_CHUNK", 3)
    counts = run_shots(bomb_layout, len(words), 0)
    assert [counts.d1, counts.d2, counts.absorbed] == np.bincount(outcome, minlength=3).tolist()
    rows = shot_batches(bomb_layout, len(words), 0, 4)
    assert [[c.d1, c.d2, c.absorbed] for _, c in rows] == [
        np.bincount(outcome[start:start + 4], minlength=3).tolist() for start, _ in rows]


def test_shot_batches_memory_is_bounded_whatever_the_batch_size(bomb_layout):
    # one small call first, so one-time set-up stays outside the trace
    shot_batches(bomb_layout, 16, 5, 16)
    tracemalloc.start()
    try:
        rows = shot_batches(bomb_layout, 2**21, 5, 2**21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0][1].total == 2**21
    assert peak < 16 * 2**20
