"""Truncated occupation-number oracle for the interferometer algebra.

The analytic engine tracks one complex amplitude per branch. This module
rebuilds the same physics as dense matrices on a truncated multimode
occupation basis, so the closed-form rules elsewhere in the package can
be checked against brute-force linear algebra instead of against
themselves.

Basis conventions:
  * modes are an ordered tuple of string ids;
  * each mode holds 0..n_max quanta, so the space has (n_max+1)^k states;
  * basis states are ordered lexicographically by occupation tuple with
    the first mode most significant; the vacuum is index 0.

Truncation bends the algebra at the top of the ladder: [a, a+] equals
the identity except for a single diagonal entry -n_max at the fully
occupied state of that mode. All identities checked here are exact on
the subspace that keeps a buffer below the cap, and the checks expose
the restriction explicitly rather than hiding the artifact.

The two-mode rotation conserves the pair photon number n_p + n_q, so it
is block-diagonal in sectors of fixed pair number and fixed occupations
of every other mode. Each sector's small tridiagonal generator is
exponentiated by a Hermitian eigendecomposition instead of exponentiating
the whole dense matrix; the truncation edge only narrows the sectors with
n_p + n_q > n_max, so the result equals the exponential of the dense
truncated generator. The generator does not depend on the angle, so a
space diagonalizes each sector once, when a call first needs it, and
keeps the eigensystem for its own lifetime; each call only forms the
angle's phases. Each call evaluates all the sectors it needs as one
stack, zero-padded to the largest sector, with one batched matmul:
`v_unitary` scatters the stack into a dense matrix with one indexed
assignment, and `rotation_check` takes every sector's defect from the
stack at once and forms no dense unitary or ladder.

The operators that are returned are dense dim x dim complex128 matrices,
so `build_space` refuses any space whose single operator would exceed
OPERATOR_BYTES (128 MiB, dim <= 2896).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import integer

# memory budget for one dense dim x dim complex128 operator
OPERATOR_BYTES = 2**27

_KINDS = ("lowering", "raising")


@dataclass(eq=False, frozen=True)
class FockSpace:
    """Truncated multimode occupation space with a precomputed basis table.

    Frozen, so the sector eigensystems it keeps always match its n_max.
    """

    modes: tuple[str, ...]
    n_max: int
    dim: int
    occupations: np.ndarray = field(repr=False)  # (dim, len(modes)) int array
    # pair number -> read-only (n_p, lam, u) of the rotation generator's sector
    _eigensystems: dict = field(default_factory=dict, init=False, repr=False)

    def mode_position(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise KeyError(f"unknown mode id {mode!r}; known modes: {list(self.modes)}") from None

    def index_of(self, occupation) -> int:
        """Basis index of an occupation tuple (inverse of `occupation_of`)."""
        occ = tuple(integer(n, "occupation") for n in occupation)
        if len(occ) != len(self.modes):
            raise ValueError(f"occupation must list {len(self.modes)} entries, got {len(occ)}")
        d = self.n_max + 1
        index = 0
        for n in occ:
            if not 0 <= n <= self.n_max:
                raise ValueError(f"occupation {n} outside 0..{self.n_max}")
            index = index * d + n
        return index

    def occupation_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(n) for n in self.occupations[index])

    def _sector_eigensystem(self, total: int) -> tuple:
        """(n_p, lam, u) with i G = u diag(lam) u+ in the sector of pair number total.

        G is the pair rotation's generator; rows and columns follow n_p
        ascending, with n_q = total - n_p. Diagonalized on the first call
        for that sector and kept on the space.
        """
        found = self._eigensystems.get(total)
        if found is not None:
            return found
        n_p = np.arange(max(0, total - self.n_max), min(total, self.n_max) + 1)
        # <n_p+1, total-n_p-1| a+_p a_q |n_p, total-n_p>; the sector's ends
        # are where the cap stops a+_p or a+_q, as in the dense matrix
        hop = np.sqrt((n_p[:-1] + 1.0) * (total - n_p[:-1]))
        found = (n_p, *np.linalg.eigh(np.diag(1j * hop, -1) - np.diag(1j * hop, 1)))
        for array in found:
            array.flags.writeable = False
        self._eigensystems[total] = found
        return found


def build_space(modes, n_max: int) -> FockSpace:
    """Construct a truncated space for the given mode ids.

    Rejects duplicate mode ids, a non-integer n_max or one below 1, and
    any request whose basis dimension dim = (n_max+1)^len(modes) makes
    one dense complex128 operator, dim^2 * 16 bytes, larger than
    OPERATOR_BYTES.
    """
    modes = tuple(str(m) for m in modes)
    if len(modes) == 0:
        raise ValueError("at least one mode id is required")
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate mode ids in {list(modes)}")
    n_max = integer(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    d = n_max + 1
    dim = d ** len(modes)
    operator_bytes = dim * dim * np.dtype(np.complex128).itemsize
    if operator_bytes > OPERATOR_BYTES:
        raise ValueError(
            f"basis dimension (n_max+1)^n_modes = {d}^{len(modes)} = {dim} "
            f"needs {operator_bytes} bytes per dense complex128 operator, "
            f"over the budget of {OPERATOR_BYTES} bytes"
        )
    # row i is the base-d digits of i, first mode most significant
    occupations = np.indices((d,) * len(modes)).reshape(len(modes), -1).T
    return FockSpace(modes=modes, n_max=n_max, dim=dim, occupations=occupations)


def ladder(space: FockSpace, mode: str, kind: str) -> np.ndarray:
    """Dense lowering or raising operator for one mode of the space.

    Read from the occupation table: a_m maps each basis state with n > 0
    quanta in mode m to the state one mode stride lower, with weight
    sqrt(n); the raising operator swaps rows and columns.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    pos = space.mode_position(mode)
    n = space.occupations[:, pos]
    occupied = np.flatnonzero(n)
    lower = occupied - (space.n_max + 1) ** (len(space.modes) - 1 - pos)
    rows, cols = (lower, occupied) if kind == "lowering" else (occupied, lower)
    a = np.zeros((space.dim, space.dim), dtype=np.complex128)
    a[rows, cols] = np.sqrt(n[occupied])
    return a


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"operators must be square matrices, got shape {x.shape}")
    if x.shape != y.shape:
        raise ValueError(f"operator shapes {x.shape} and {y.shape} do not match")
    return x @ y - y @ x


def _pair_positions(space: FockSpace, mode_pair) -> tuple[int, int]:
    p, q = mode_pair
    if p == q:
        raise ValueError(f"mode pair must name two distinct modes, got {(p, q)!r}")
    return space.mode_position(p), space.mode_position(q)


def _sector_stack(space: FockSpace, alpha: float, top: int) -> np.ndarray:
    """(top, m, m) stack of the rotation's real blocks for pair numbers 0..top-1.

    Block N is exp(alpha G) = U exp(-i alpha lam) U+ from the space's
    eigensystem of the Hermitian i G, zero-padded to the largest sector's
    size m; row and column k hold n_p = max(0, N - n_max) + k (see
    `_padded_sectors`). G is real, so the imaginary part is rounding and
    is dropped. Every block comes from one batched matmul.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("rotation angle must be finite")
    m = min(top, space.n_max + 1)
    lam = np.zeros((top, m))
    u = np.zeros((top, m, m), dtype=np.complex128)
    for total in range(top):
        _, lam_n, u_n = space._sector_eigensystem(total)
        size = len(lam_n)
        lam[total, :size] = lam_n
        u[total, :size, :size] = u_n
    phased = u * np.exp(-1j * alpha * lam)[:, None, :]
    return (phased @ np.conj(u, out=u).transpose(0, 2, 1)).real


def _padded_sectors(space: FockSpace, top: int) -> tuple:
    """(totals, n_p, valid) over the rows of a `_sector_stack` of top sectors.

    totals is (top, 1), n_p and valid are (top, m): row k of block N holds
    n_p = max(0, N - n_max) + k, a state of the sector when valid.
    """
    m = min(top, space.n_max + 1)
    totals = np.arange(top)[:, None]
    n_p = np.maximum(0, totals - space.n_max) + np.arange(m)
    return totals, n_p, n_p <= np.minimum(totals, space.n_max)


def v_unitary(space: FockSpace, mode_pair, alpha: float) -> np.ndarray:
    """Two-mode rotation exp(alpha (a+_p a_q - a+_q a_p)) for (p, q) = mode_pair.

    The generator is anti-hermitian, so the matrix exponential is unitary
    at every truncation level. Conjugation rotates the pair of lowering
    operators into each other:

        V+ a_p V = cos(alpha) a_p + sin(alpha) a_q
        V+ a_q V = cos(alpha) a_q - sin(alpha) a_p

    exactly on the subspace whose pair occupation stays below n_max (see
    `rotation_check`). On single-photon amplitudes over (p, q) this acts
    as the same [[c, s], [-s, c]] matrix the analytic engine uses, which
    is what makes this module a cross-check of that engine.
    """
    top = 2 * space.n_max + 1
    blocks = _sector_stack(space, alpha, top)
    pos_p, pos_q = _pair_positions(space, mode_pair)
    stride_p = (space.n_max + 1) ** (len(space.modes) - 1 - pos_p)
    stride_q = (space.n_max + 1) ** (len(space.modes) - 1 - pos_q)
    totals, n_p, valid = _padded_sectors(space, top)
    offset = n_p * stride_p + (totals - n_p) * stride_q
    sector, row, col = np.nonzero(valid[:, :, None] & valid[:, None, :])
    # one base index per occupation of the other modes, with p and q empty
    occ = space.occupations
    bases = np.flatnonzero((occ[:, pos_p] == 0) & (occ[:, pos_q] == 0))[:, None]
    v = np.zeros((space.dim, space.dim), dtype=np.complex128)
    v[bases + offset[sector, row], bases + offset[sector, col]] = blocks[sector, row, col]
    return v


def rotation_check(space: FockSpace, mode_pair, alpha: float, restrict: bool = True) -> float:
    """Residual of the conjugation rule V+ a V = rotated ladder pair.

    Returns the larger Frobenius norm of the two defect matrices. With
    restrict=True, columns are kept only for basis states whose combined
    occupation of the pair stays below n_max; on that subspace the rule
    is an exact identity and the residual sits at rounding level. With
    restrict=False the truncation edge contributes O(1) defects for any
    appreciable angle, which is the expected signature of the cap, not
    an implementation fault.

    V is block-diagonal in the pair number and a lowers it by one, so the
    columns of pair number N hold V_{N-1}^T L V_N - (c L_p +- s L_q), with
    L the lowering map from sector N into N - 1. L has at most one entry
    per column, so V_{N-1}^T L gathers rows of V_{N-1}, and every sector's
    defect comes from one stack of blocks at once. The defect is the same
    for every occupation of the other modes, so each sector's squared norm
    counts once per such occupation; no dense matrix is formed.
    """
    top = space.n_max if restrict else 2 * space.n_max + 1
    blocks = _sector_stack(space, alpha, top)
    _pair_positions(space, mode_pair)
    c, s = math.cos(alpha), math.sin(alpha)
    totals, n_p, valid = _padded_sectors(space, top)
    # a_p |n_p, n_q> = sqrt(n_p) |n_p-1, n_q>, a_q |n_p, n_q> = sqrt(n_q) |n_p, n_q-1>:
    # column k of sector N goes to row n_p - 1 - first or n_p - first of
    # sector N - 1, whose row 0 holds n_p = first
    first = n_p[:-1, :1]
    n_p, n_q, valid = n_p[1:], totals[1:] - n_p[1:], valid[1:]
    sector, column = np.arange(top - 1)[:, None], np.arange(blocks.shape[1])
    # column k of L_p and of L_q: its one row and entry (0 where it has none)
    maps = []
    for row, quanta in ((n_p - 1 - first, n_p), (n_p - first, n_q)):
        reached = valid & (quanta > 0)
        maps.append((np.where(reached, row, 0), np.sqrt(np.where(reached, quanta, 0))))
    worst = 0.0
    # a_p against c a_p + s a_q, and a_q against c a_q - s a_p
    for (row, low), (other_row, other_low), sign in ((*maps, 1.0), (*maps[::-1], -1.0)):
        # row k is V_{N-1}'s row at column k's image, scaled: (V_{N-1}^T L)^T
        gathered = blocks[:-1][sector, row]
        gathered *= low[..., None]
        defect = gathered.transpose(0, 2, 1) @ blocks[1:]
        defect[sector, row, column] -= c * low
        defect[sector, other_row, column] -= sign * s * other_low
        worst = max(worst, float(np.sum(defect ** 2)))
    copies = space.dim // (space.n_max + 1) ** 2
    return math.sqrt(copies * worst)


def commutator_preservation_check(space: FockSpace, mode_pair, alpha: float) -> float:
    """Max-norm residual of [V+ X V, V+ Y V] = V+ [X, Y] V over ladder pairs.

    Unitary conjugation is an algebra homomorphism, so this holds on the
    full truncated space (no subspace restriction needed); the residual
    only carries floating-point noise.
    """
    v = v_unitary(space, mode_pair, alpha)
    vh = v.conj().T
    ops = [ladder(space, m, kind) for m in mode_pair for kind in _KINDS]
    conjugated = [vh @ x @ v for x in ops]
    worst = 0.0
    # both sides vanish exactly for X = Y, and swapping X and Y negates
    # both exactly, so each unordered pair is taken once
    for (x, cx), (y, cy) in itertools.combinations(zip(ops, conjugated), 2):
        lhs = commutator(cx, cy)
        rhs = vh @ commutator(x, y) @ v
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
