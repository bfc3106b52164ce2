import io
import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from ifmsim import (
    build_space,
    verify,
    commutator,
    commutator_preservation_check,
    ladder,
    number_operator,
    rotation_check,
    two_port_rotation,
    v_unitary,
)

PAIR = ("p", "q")


def test_build_space_basics(two_mode_space):
    assert two_mode_space.dim == 49
    assert two_mode_space.occupation_of(0) == (0, 0)
    assert two_mode_space.index_of((0, 0)) == 0
    # lexicographic: second mode varies fastest
    assert two_mode_space.occupation_of(1) == (0, 1)
    assert two_mode_space.index_of((6, 6)) == 48
    for idx in range(two_mode_space.dim):
        assert two_mode_space.index_of(two_mode_space.occupation_of(idx)) == idx


@pytest.mark.parametrize("n_modes, n_max", [(1, 4), (2, 6), (3, 2), (4, 1)])
def test_occupation_table_is_lexicographic(n_modes, n_max):
    space = build_space([f"m{k}" for k in range(n_modes)], n_max)
    expected = list(itertools.product(range(n_max + 1), repeat=n_modes))
    assert space.occupations.dtype == np.int64
    assert space.occupations.tolist() == [list(occ) for occ in expected]


def test_space_is_frozen(two_mode_space):
    # the sector eigensystems kept on a space are only valid for its n_max
    with pytest.raises(AttributeError):
        two_mode_space.n_max = 3


def test_build_space_validation():
    with pytest.raises(ValueError, match="duplicate"):
        build_space(("p", "p"), 3)
    with pytest.raises(ValueError, match="n_max"):
        build_space(("p",), 0)
    with pytest.raises(ValueError, match="at least one"):
        build_space((), 3)


@pytest.mark.parametrize("n_max", [2.7, 2.0, True, np.float64(3.0)])
def test_build_space_refuses_non_integer_n_max(n_max):
    # truncation would build n_max 2 from 2.7, and n_max 1 from True
    with pytest.raises(ValueError, match="n_max must be an integer"):
        build_space(PAIR, n_max)


def test_index_of_refuses_non_integer_occupations(two_mode_space):
    # truncation would map (0.5, 1.9) to the index of (0, 1)
    with pytest.raises(ValueError, match="occupation must be an integer"):
        two_mode_space.index_of((0.5, 1.9))
    assert two_mode_space.index_of(np.array([3, 2])) == two_mode_space.index_of((3, 2))


def test_build_space_accepts_numpy_integers():
    space = build_space(PAIR, np.int32(3))
    assert space.n_max == 3 and type(space.n_max) is int
    assert space.dim == build_space(PAIR, 3).dim


def test_dimension_cap_names_the_product():
    with pytest.raises(ValueError) as err:
        build_space(("a", "b", "c"), 99)
    message = str(err.value)
    assert "100^3" in message and "1000000" in message and "100000" in message


def test_byte_budget_bounds_dense_operators():
    # dim 90601: one dense complex128 operator would take about 122 GiB
    with pytest.raises(ValueError, match="131336659216 bytes"):
        build_space(("p", "q"), 300)
    assert build_space(("p", "q"), 28).dim == 841


def test_byte_budget_edge():
    # 2**27 bytes holds a dense operator of dim 2896; n_max 52 gives dim
    # 2809 (126 247 696 bytes), n_max 53 gives dim 2916, just over
    assert build_space(("p", "q"), 52).dim == 2809
    with pytest.raises(ValueError, match="54\\^2 = 2916 needs 136048896 bytes"):
        build_space(("p", "q"), 53)


def test_ladder_matrix_elements(two_mode_space):
    a = ladder(two_mode_space, "p", "lowering")
    # a |n, 0> = sqrt(n) |n-1, 0>
    for n in range(1, 7):
        col = two_mode_space.index_of((n, 0))
        row = two_mode_space.index_of((n - 1, 0))
        assert abs(a[row, col] - math.sqrt(n)) < 1e-15
    raising = ladder(two_mode_space, "p", "raising")
    np.testing.assert_array_equal(raising, a.conj().T)


@pytest.mark.parametrize("n_modes, n_max", [(1, 5), (2, 4), (3, 3)])
def test_ladder_equals_kron_build(n_modes, n_max):
    # independent reference: the single-mode matrix kron'd between identities
    d = n_max + 1
    low = np.diag(np.sqrt(np.arange(1, d)), 1).astype(np.complex128)
    space = build_space([f"m{k}" for k in range(n_modes)], n_max)
    for pos, mode in enumerate(space.modes):
        left, right = np.eye(d ** pos), np.eye(d ** (n_modes - pos - 1))
        for kind, single in (("lowering", low), ("raising", low.T)):
            built = ladder(space, mode, kind)
            assert built.dtype == np.complex128 and built.flags.c_contiguous
            assert np.array_equal(built, np.kron(np.kron(left, single), right))


def test_ladder_validation(two_mode_space):
    with pytest.raises(KeyError, match="unknown mode"):
        ladder(two_mode_space, "nope", "lowering")
    with pytest.raises(ValueError, match="kind"):
        ladder(two_mode_space, "p", "sideways")


def test_commutator_shape_validation():
    with pytest.raises(ValueError, match="do not match"):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="square"):
        commutator(np.ones((2, 3)), np.ones((2, 3)))


def test_canonical_commutator_truncation_signature(two_mode_space):
    space = two_mode_space
    a = ladder(space, "p", "lowering")
    comm = commutator(a, a.conj().T)
    expected = np.eye(space.dim, dtype=complex)
    for idx in range(space.dim):
        if space.occupations[idx, 0] == space.n_max:
            expected[idx, idx] = -space.n_max
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_number_operator_counts(two_mode_space):
    n_p = number_operator(two_mode_space, "p")
    total = number_operator(two_mode_space)
    idx = two_mode_space.index_of((3, 2))
    assert n_p[idx, idx] == 3
    assert total[idx, idx] == 5


@pytest.mark.parametrize("alpha", [0.1, math.pi / 7, math.pi / 4, math.pi / 2, 2.0])
def test_v_unitary_is_unitary(two_mode_space, alpha):
    v = v_unitary(two_mode_space, PAIR, alpha)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(two_mode_space.dim), atol=1e-12)


def test_v_unitary_vacuum_invariant(two_mode_space):
    v = v_unitary(two_mode_space, PAIR, 0.83)
    vacuum = np.zeros(two_mode_space.dim, dtype=complex)
    vacuum[0] = 1.0
    out = v @ vacuum
    assert abs(out[0] - 1.0) < 1e-14


def test_v_unitary_validation(two_mode_space):
    with pytest.raises(ValueError, match="distinct"):
        v_unitary(two_mode_space, ("p", "p"), 0.5)
    with pytest.raises(KeyError):
        v_unitary(two_mode_space, ("p", "r"), 0.5)
    with pytest.raises(ValueError, match="finite"):
        v_unitary(two_mode_space, PAIR, math.inf)


def test_single_photon_block_matches_port_rotation(two_mode_space):
    """The whole point of the oracle: on one-photon amplitudes the mode
    rotation acts by exactly the 2x2 matrix the analytic engine uses."""
    space = two_mode_space
    i_p = space.index_of((1, 0))
    i_q = space.index_of((0, 1))
    for alpha in np.linspace(-math.pi, math.pi, 17):
        v = v_unitary(space, PAIR, alpha)
        block = np.array([[v[i_p, i_p], v[i_p, i_q]],
                          [v[i_q, i_p], v[i_q, i_q]]]).real
        np.testing.assert_allclose(block, two_port_rotation(alpha), atol=1e-13)


@pytest.mark.parametrize("alpha", [math.pi / 7, math.pi / 4, math.pi / 2])
def test_rotation_check_restricted(two_mode_space, alpha):
    assert rotation_check(two_mode_space, PAIR, alpha) < 1e-9


def test_rotation_check_angle_grid(two_mode_space):
    worst = max(rotation_check(two_mode_space, PAIR, a)
                for a in np.linspace(0, 2 * math.pi, 16, endpoint=False))
    assert worst < 1e-9


def test_rotation_check_full_space_sees_truncation_edge(two_mode_space):
    # without the subspace restriction the cap produces O(1) defects;
    # that is the truncation artifact, not a bug
    assert rotation_check(two_mode_space, PAIR, math.pi / 4, restrict=False) > 1e-3


def _dense_rotation_residual(space, pair, alpha, restrict):
    # the same residual from dense matrices: V+ (a V) on the kept columns
    p, q = pair
    v = v_unitary(space, pair, alpha)
    keep = np.ones(space.dim, dtype=bool)
    if restrict:
        occ = space.occupations
        keep = occ[:, space.mode_position(p)] + occ[:, space.mode_position(q)] < space.n_max
    a_p, a_q = ladder(space, p, "lowering"), ladder(space, q, "lowering")
    conj_p = v.conj().T @ (a_p @ v[:, keep])
    conj_q = v.conj().T @ (a_q @ v[:, keep])
    c, s = math.cos(alpha), math.sin(alpha)
    return max(np.linalg.norm(conj_p - (c * a_p + s * a_q)[:, keep]),
               np.linalg.norm(conj_q - (c * a_q - s * a_p)[:, keep]))


@pytest.mark.parametrize("modes, pair", [
    (("p", "q"), ("p", "q")),
    (("p", "q"), ("q", "p")),
    (("p", "r", "q"), ("p", "q")),
    (("p", "r", "q"), ("q", "p")),
    (("p", "r", "q"), ("r", "q")),
])
@pytest.mark.parametrize("n_max", [1, 2, 6])
def test_rotation_check_matches_dense_residual(modes, pair, n_max):
    space = build_space(modes, n_max)
    for alpha in (0.3, math.pi / 4, 2.0, -1.1):
        dense = _dense_rotation_residual(space, pair, alpha, restrict=True)
        assert abs(rotation_check(space, pair, alpha) - dense) <= 2e-15
        dense = _dense_rotation_residual(space, pair, alpha, restrict=False)
        assert dense > 1e-3
        assert abs(rotation_check(space, pair, alpha, restrict=False) - dense) <= 1e-12 * dense


def test_rotation_check_memory_is_per_sector():
    # one dense complex operator at n_max 28 is 11 MiB; the sector blocks are small
    space = build_space(PAIR, 28)
    tracemalloc.start()
    try:
        rotation_check(space, PAIR, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("alpha", [math.pi / 7, math.pi / 4, math.pi / 2])
def test_commutator_preservation(two_mode_space, alpha):
    assert commutator_preservation_check(two_mode_space, PAIR, alpha) < 1e-10


@pytest.mark.parametrize("modes, pair", [(PAIR, PAIR), (("p", "r", "q"), ("q", "p"))])
@pytest.mark.parametrize("alpha", [math.pi / 7, 0.9, -2.3])
def test_commutator_preservation_equals_all_ordered_pairs(modes, pair, alpha):
    # the check takes each unordered pair once; over all 16 ordered pairs
    # the same maximum comes out, to the bit
    space = build_space(modes, 3)
    v = v_unitary(space, pair, alpha)
    vh = v.conj().T
    ops = [ladder(space, m, kind) for m in pair for kind in ("lowering", "raising")]
    worst = 0.0
    for x, y in itertools.product(ops, repeat=2):
        lhs = commutator(vh @ x @ v, vh @ y @ v)
        rhs = vh @ commutator(x, y) @ v
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert commutator_preservation_check(space, pair, alpha) == worst


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_verify_diagonalizes_each_sector_once(eigh_calls):
    # one n_max 6 space: pair numbers 0..12, each diagonalized once
    assert verify.run_verification(io.StringIO())
    assert len(eigh_calls) == 2 * 6 + 1


def test_restricted_rotation_check_diagonalizes_only_its_sectors(eigh_calls):
    space = build_space(PAIR, 9)
    rotation_check(space, PAIR, 0.4)
    assert eigh_calls == list(range(1, 10))  # pair numbers 0..8 only
    rotation_check(space, PAIR, 1.3)
    rotation_check(space, PAIR, 1.3, restrict=False)
    assert len(eigh_calls) == 2 * 9 + 1


@pytest.mark.parametrize("modes, pair", [(PAIR, PAIR), (("p", "r", "q"), ("r", "q"))])
def test_reused_space_matches_a_fresh_one(modes, pair):
    # the eigensystems kept on a space give the same bits as diagonalizing anew
    reused = build_space(modes, 4)
    for alpha in (0.3, -1.7, math.pi / 4, 0.3):
        fresh = build_space(modes, 4)
        assert np.array_equal(v_unitary(reused, pair, alpha), v_unitary(fresh, pair, alpha))
        fresh = build_space(modes, 4)
        for restrict in (True, False):
            assert (rotation_check(reused, pair, alpha, restrict)
                    == rotation_check(fresh, pair, alpha, restrict))
        fresh = build_space(modes, 4)
        assert (commutator_preservation_check(reused, pair, alpha)
                == commutator_preservation_check(fresh, pair, alpha))


def test_group_law_and_inverse(two_mode_space):
    dim = two_mode_space.dim
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.uniform(-2, 2, size=2)
        lhs = v_unitary(two_mode_space, PAIR, a) @ v_unitary(two_mode_space, PAIR, b)
        rhs = v_unitary(two_mode_space, PAIR, a + b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        inv = v_unitary(two_mode_space, PAIR, a) @ v_unitary(two_mode_space, PAIR, -a)
        assert np.max(np.abs(inv - np.eye(dim))) < 1e-12


def test_rotation_conserves_photon_number(two_mode_space):
    n_total = number_operator(two_mode_space)
    for alpha in (0.4, math.pi / 2):
        v = v_unitary(two_mode_space, PAIR, alpha)
        assert np.max(np.abs(commutator(n_total, v))) < 1e-10


def test_mirror_angle_exchanges_modes(two_mode_space):
    # pi/2 rotation: |1_p> -> -|1_q>, |1_q> -> |1_p>
    space = two_mode_space
    v = v_unitary(space, PAIR, math.pi / 2)
    one_p = np.zeros(space.dim, dtype=complex)
    one_p[space.index_of((1, 0))] = 1.0
    out = v @ one_p
    assert abs(out[space.index_of((0, 1))] + 1.0) < 1e-14
    assert abs(out[space.index_of((1, 0))]) < 1e-14


@pytest.mark.parametrize("pair", [("p", "q"), ("q", "p"), ("r", "q")])
def test_v_unitary_matches_high_precision_exponential(pair):
    # the sector-block exponential against mpmath's dense expm of the full
    # truncated generator, on a three-mode space where the pair is split
    space = build_space(("p", "r", "q"), 2)
    p, q = pair
    gen = (ladder(space, p, "raising") @ ladder(space, q, "lowering")
           - ladder(space, q, "raising") @ ladder(space, p, "lowering"))
    alpha = 0.7
    with mp.workdps(30):
        ref = mp.expm(mp.matrix((alpha * gen).real.tolist()))
        ref = np.array(ref.tolist(), dtype=float)
    assert np.max(np.abs(v_unitary(space, pair, alpha) - ref)) < 1e-13


def _wigner_small_d(n_out, n_in, beta):
    """d^j_{m'm}(beta) = <j m'| exp(-i beta J_y) |j m> by Wigner's sum, at 30 digits.

    Each state is given as (j + m, j - m); the phase convention is
    Sakurai's, in which d^{1/2}(beta) = [[cos b/2, -sin b/2], [sin b/2, cos b/2]]
    with rows and columns ordered m = +1/2, -1/2.
    """
    (c, d), (a, b) = n_out, n_in
    f = math.factorial
    with mp.workdps(30):
        half = mp.mpf(beta) / 2
        total = mp.mpf(0)
        for k in range(max(0, a - c), min(a, d) + 1):
            total += ((-1) ** (k - a + c) * mp.sqrt(f(a) * f(b) * f(c) * f(d))
                      / (f(a - k) * f(k) * f(d - k) * f(k - a + c))
                      * mp.cos(half) ** (2 * a + b - c - 2 * k)
                      * mp.sin(half) ** (2 * k - a + c))
        return float(total)


@pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 2.0, -1.1])
def test_sectors_match_wigner_small_d(alpha):
    # Schwinger bosons (Yurke, McCall & Klauder, PRA 33, 4033 (1986)):
    # J_z = (n_p - n_q)/2 and J_y = (a+_p a_q - a+_q a_p)/(2i), so the sector
    # n_p + n_q = N is spin j = N/2 with m = (n_p - n_q)/2, and
    # V = exp(2i alpha J_y) = exp(-i beta J_y) at beta = -2 alpha. Hence
    # <n'_p, n'_q| V |n_p, n_q> = d^j_{m'm}(-2 alpha) = d^j_{mm'}(2 alpha): the
    # block is d^{N/2}(2 alpha) transposed. For N = 1, over (|1,0>, |0,1>), that
    # is [[c, s], [-s, c]], the engine's two-port rotation.
    space = build_space(PAIR, 12)
    v = v_unitary(space, PAIR, alpha)
    for total in range(space.n_max + 1):
        states = [(n_p, total - n_p) for n_p in range(total + 1)]
        index = [space.index_of(state) for state in states]
        block = v[np.ix_(index, index)]
        expected = [[_wigner_small_d(n_in, n_out, 2 * alpha) for n_in in states]
                    for n_out in states]
        assert np.max(np.abs(block - np.array(expected))) < 1e-12
