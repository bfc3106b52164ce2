import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from ifmsim import (
    ConfigurationError,
    ElementKind,
    GaussianPacket,
    OpticalElement,
    PhotonMode,
    householder,
    locality_check,
    packet_overlap,
    port_matrix,
    reflect_mode,
    two_port_rotation,
)
from ifmsim.optics import HouseholderReflection, _mode_energies, _reflections


def test_householder_properties_random_normals():
    rng = np.random.default_rng(11)
    for _ in range(200):
        refl = householder(rng.normal(size=3))
        r = refl.matrix
        assert abs(np.linalg.norm(refl.normal) - 1.0) < 1e-12
        np.testing.assert_allclose(r, r.T, atol=1e-15)
        np.testing.assert_allclose(r @ r, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(r) + 1.0) < 1e-12


def test_householder_zero_normal_rejected():
    with pytest.raises(ConfigurationError, match="degenerate normal"):
        householder((0.0, 0.0, 0.0))


@pytest.mark.parametrize("scale", [1e200, 3e-200, 2.0**600, 2.0**-600])
def test_householder_normal_whose_square_overflows_or_underflows(scale):
    # n.n is inf or 0 in doubles; the reflection is still the diagonal mirror
    reflection = householder((scale, -scale, 0.0))
    diagonal = householder((1.0, -1.0, 0.0))
    np.testing.assert_allclose(reflection.normal, diagonal.normal, rtol=0, atol=1e-15)
    np.testing.assert_allclose(reflection.matrix, diagonal.matrix, rtol=0, atol=1e-15)


def test_householder_exact_power_of_two_scaling_keeps_the_bits():
    # a normal in range and the same normal scaled far out of range by a
    # power of two give the same reflection to the bit
    rng = np.random.default_rng(8)
    for normal in rng.normal(size=(50, 3)):
        expected = householder(normal)
        for power in (700, -700):
            scaled = householder(np.ldexp(normal, power))
            assert np.array_equal(scaled.normal, expected.normal)
            assert np.array_equal(scaled.matrix, expected.matrix)


def test_householder_keeps_read_only_arrays_apart_from_its_input():
    # divided, already unit (no division) and rescaled by a power of two
    for given in (np.array([0.0, 0.0, -7.0]), np.array([1.0, 0.0, 0.0]),
                  np.array([2.0**600, 0.0, 2.0**600])):
        reflection = householder(given)
        built = HouseholderReflection(given, np.eye(3))
        for arr in (reflection.normal, reflection.matrix, built.normal, built.matrix):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, given)


def _raised(build, *args):
    with pytest.raises(Exception) as caught:
        build(*args)
    return type(caught.value), str(caught.value)


def test_reflection_stack_equals_householder_on_edge_rows():
    # pytest turns warnings into errors, so the stack squares 1e200 and
    # 2**600 without an overflow warning, as householder's floats do
    rng = np.random.default_rng(4)
    drawn = rng.normal(size=(20, 3))
    rows = np.array([
        # unit to rounding: householder skips the division (its idempotence guard)
        *(householder(n).normal for n in drawn),
        *drawn / np.linalg.norm(drawn, axis=1, keepdims=True),
        (1.0, -1.0, 0.0), (0.0, 0.0, -7.0), (1e200, -1e200, 0.0), (-1e200, 1e200, 1e200),
        (2.0**600, -(2.0**600), 0.0), (2.0**-600, 2.0**-600, 0.0), (3e-200, -3e-200, 0.0),
        (5e-324, 0.0, 0.0), (1e300, 1.0, -1e-300), (0.6 * 2.0**600, 0.8 * 2.0**600, 0.0),
    ])
    unit, matrices = _reflections(rows)
    for row, n, m in zip(rows, unit, matrices):
        reflection = householder(row)
        assert reflection.normal.tobytes() == n.tobytes()
        assert reflection.matrix.tobytes() == m.tobytes()


@pytest.mark.parametrize("refused", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (math.nan, 1.0, 0.0),
                                     (1.0, -math.inf, 0.0)])
def test_reflection_stack_refuses_what_householder_refuses(refused):
    expected = _raised(householder, refused)
    # a refused row decides wherever it sits, and the first one decides
    # over a later row refused for the other reason
    other = (math.inf, 0.0, 0.0) if all(map(math.isfinite, refused)) else (0.0, 0.0, 0.0)
    assert _raised(_reflections, [refused]) == expected
    assert _raised(_reflections, [(1.0, 2.0, 3.0), refused, other]) == expected


def test_stacks_refuse_rows_that_are_not_3_vectors():
    message = "normal must be a stack of 3-vectors, got shape (3,)"
    assert _raised(_reflections, (1.0, 0.0, 0.0)) == (ValueError, message)
    message = "polarization must be a stack of 3-vectors, got shape (1, 2)"
    assert _raised(_mode_energies, [(1.0, 0.0, 0.0)], [(0.0, 1.0)]) == (ValueError, message)


_MODE = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))


@pytest.mark.parametrize("momentum, polarization", [
    ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ((1.0, 0.0, 0.0), (0.0, 0.0, 2.0)),
    ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((math.nan, 0.0, 0.0), (0.0, math.inf, 1.0)),
    ((1.0, 0.0, 0.0), (0.0, math.inf, 1.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, math.nan)),
])
def test_mode_stack_refuses_what_photon_mode_refuses(momentum, polarization):
    expected = _raised(PhotonMode, momentum, polarization)
    # the first refused row decides over a later row refused for another reason
    later = ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    if _raised(PhotonMode, *later) == expected:
        later = ((1.0, 0.0, 0.0), (0.0, 0.0, 2.0))
    assert _raised(_mode_energies, [momentum], [polarization]) == expected
    assert _raised(_mode_energies, [_MODE[0], momentum, later[0]],
                   [_MODE[1], polarization, later[1]]) == expected


# _UNIT_TOL is 1e-9: each probe sits 10% inside or outside it, for |p| 1
# and 10, so a looser tolerance or one not scaled by |p| shows
@pytest.mark.parametrize("energy", [1.0, 10.0])
@pytest.mark.parametrize("offset, fault", [
    (0.9e-9, None), (1.1e-9, "polarization must be a unit vector"),
    (-0.9e-9, None), (-1.1e-9, "polarization must be a unit vector"),
])
def test_unit_polarization_at_the_tolerance_edge(energy, offset, fault):
    _probe_mode((energy, 0.0, 0.0), (0.0, 0.0, 1.0 + offset), fault)


@pytest.mark.parametrize("energy", [1.0, 10.0])
@pytest.mark.parametrize("lean, fault", [
    (0.9e-9, None), (1.1e-9, "polarization must be transverse to the momentum"),
    (-0.9e-9, None), (-1.1e-9, "polarization must be transverse to the momentum"),
])
def test_transverse_polarization_at_the_tolerance_edge(energy, lean, fault):
    # |e| is 1 to rounding, and e.p is lean * |p|
    _probe_mode((energy, 0.0, 0.0), (lean, 0.0, math.sqrt(1.0 - lean * lean)), fault)


def _probe_mode(momentum, polarization, fault):
    if fault is None:
        energy = _mode_energies([momentum], [polarization])
        assert energy.tobytes() == np.array([PhotonMode(momentum, polarization).energy]).tobytes()
    else:
        assert _raised(PhotonMode, momentum, polarization) == (ValueError, fault)
        assert _raised(_mode_energies, [momentum], [polarization]) == (ValueError, fault)


def test_householder_normalizes_input():
    refl = householder((0.0, 0.0, -7.0))
    np.testing.assert_allclose(refl.normal, [0.0, 0.0, -1.0])


def test_householder_idempotent_on_unit_normal():
    # normalizing twice must not churn bits; serialization relies on this
    first = householder((1.0, -1.0, 0.0))
    second = householder(first.normal)
    assert np.array_equal(first.normal, second.normal)


def test_diagonal_normal_swaps_x_and_y():
    refl = householder((1.0, -1.0, 0.0))
    np.testing.assert_allclose(refl.matrix @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(refl.matrix @ [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(refl.matrix @ [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], atol=1e-15)


def test_reflect_mode_preserves_energy_and_transversality():
    rng = np.random.default_rng(23)
    for _ in range(300):
        p = rng.normal(size=3) * rng.uniform(0.5, 5.0)
        if np.linalg.norm(p) < 1e-6:
            continue
        pol = np.cross(p, rng.normal(size=3))
        if np.linalg.norm(pol) < 1e-9:
            continue
        mode = PhotonMode(momentum=p, polarization=pol / np.linalg.norm(pol))
        out = reflect_mode(householder(rng.normal(size=3)), mode)
        assert abs(out.energy - mode.energy) < 1e-12
        assert abs(float(out.polarization @ out.momentum)) < 1e-11


def test_photon_mode_validation():
    with pytest.raises(ValueError, match="nonzero"):
        PhotonMode(momentum=(0, 0, 0), polarization=(0, 0, 1))
    with pytest.raises(ValueError, match="unit"):
        PhotonMode(momentum=(1, 0, 0), polarization=(0, 0, 2))
    with pytest.raises(ValueError, match="transverse"):
        PhotonMode(momentum=(1, 0, 0), polarization=(1, 0, 0))
    with pytest.raises(ValueError):
        PhotonMode(momentum=(1, 0), polarization=(0, 0, 1))


@pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 4, math.pi / 2, 2.5])
def test_two_port_rotation_is_special_orthogonal(alpha):
    m = two_port_rotation(alpha)
    np.testing.assert_allclose(m @ m.T, np.eye(2), atol=1e-15)
    assert abs(np.linalg.det(m) - 1.0) < 1e-15


def test_two_port_rotation_composition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(-3, 3, size=2)
        np.testing.assert_allclose(
            two_port_rotation(a) @ two_port_rotation(b),
            two_port_rotation(a + b),
            atol=1e-14,
        )


def test_port_matrix_angles_by_kind():
    refl = householder((1.0, -1.0, 0.0))
    mirror = OpticalElement(ElementKind.MIRROR, refl)
    splitter = OpticalElement(ElementKind.BEAMSPLITTER, refl)
    assert mirror.alpha == math.pi / 2
    assert splitter.alpha == math.pi / 4
    np.testing.assert_allclose(port_matrix(mirror), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
    c = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(port_matrix(splitter), [[c, c], [-c, c]], atol=1e-15)


def _packet(x, width=0.05):
    carrier = PhotonMode(momentum=(1.0, 0.0, 0.0), polarization=(0.0, 0.0, 1.0))
    return GaussianPacket(center=(x, 0.0, 0.0), width=width, carrier=carrier)


def test_packet_overlap_closed_form():
    sigma = 0.05
    assert packet_overlap(_packet(0.0), _packet(0.0)) == 1.0
    # 8 sigma separation: exp(-(8 s)^2 / (4 s^2)) = exp(-16)
    got = packet_overlap(_packet(0.0), _packet(8 * sigma))
    assert abs(got - math.exp(-16.0)) < 1e-20


def test_packet_overlap_monotone_in_separation():
    values = [packet_overlap(_packet(0.0), _packet(d)) for d in np.linspace(0, 1, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_packet_overlap_requires_equal_widths():
    with pytest.raises(ConfigurationError, match="widths differ"):
        packet_overlap(_packet(0.0, width=0.05), _packet(1.0, width=0.06))


def test_locality_check_boundaries():
    assert locality_check(_packet(0.0), _packet(1.0))
    assert not locality_check(_packet(0.0), _packet(0.0))
    with pytest.raises(ValueError, match="tolerance"):
        locality_check(_packet(0.0), _packet(1.0), tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        locality_check(_packet(0.0), _packet(1.0), tolerance=1.0)


def test_values_hold_frozen_copies_of_their_arrays():
    momentum, polarization, center = np.array([1.0, 0.0, 0.0]), np.eye(3)[2], np.zeros(3)
    given = householder((1.0, -1.0, 0.0))
    normal, matrix = given.normal.copy(), given.matrix.copy()
    mode = PhotonMode(momentum, polarization)
    packet = GaussianPacket(center, 0.05, mode)
    reflection = HouseholderReflection(normal, matrix)
    # writing into the caller's arrays afterwards leaves every value as it was built
    for array in (momentum, polarization, center, normal, matrix):
        array[:] = 7.0
    np.testing.assert_array_equal(mode.momentum, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(mode.polarization, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(packet.center, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(reflection.normal, given.normal)
    np.testing.assert_array_equal(reflection.matrix, given.matrix)
    for array in (mode.momentum, mode.polarization, packet.center, reflection.normal,
                  reflection.matrix):
        with pytest.raises(ValueError):
            array[0] = 7.0
    for value, name in ((mode, "momentum"), (packet, "width"), (reflection, "matrix"),
                        (OpticalElement(ElementKind.MIRROR, reflection), "reflection")):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_gaussian_packet_width_positive():
    carrier = PhotonMode(momentum=(1.0, 0.0, 0.0), polarization=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="width"):
        GaussianPacket(center=(0, 0, 0), width=0.0, carrier=carrier)
