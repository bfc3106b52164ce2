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
truncated generator. `v_unitary` scatters the sector blocks into a dense
matrix; `rotation_check` applies them sector by sector and forms no dense
unitary or ladder.

The operators that are returned are dense dim x dim complex128 matrices,
so `build_space` refuses any space whose single operator would exceed
OPERATOR_BYTES (128 MiB, dim <= 2896).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# memory budget for one dense dim x dim complex128 operator
OPERATOR_BYTES = 2**27

_KINDS = ("lowering", "raising")


@dataclass(eq=False)
class FockSpace:
    """Truncated multimode occupation space with a precomputed basis table."""

    modes: tuple[str, ...]
    n_max: int
    dim: int
    occupations: np.ndarray = field(repr=False)  # (dim, len(modes)) int array

    def mode_position(self, mode: str) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise KeyError(f"unknown mode id {mode!r}; known modes: {list(self.modes)}") from None

    def index_of(self, occupation) -> int:
        """Basis index of an occupation tuple (inverse of `occupation_of`)."""
        occ = tuple(int(n) for n in occupation)
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


def build_space(modes, n_max: int) -> FockSpace:
    """Construct a truncated space for the given mode ids.

    Rejects duplicate mode ids, n_max < 1, and any request whose basis
    dimension dim = (n_max+1)^len(modes) makes one dense complex128
    operator, dim^2 * 16 bytes, larger than OPERATOR_BYTES.
    """
    modes = tuple(str(m) for m in modes)
    if len(modes) == 0:
        raise ValueError("at least one mode id is required")
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate mode ids in {list(modes)}")
    n_max = int(n_max)
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
    occupations = np.array(list(itertools.product(range(d), repeat=len(modes))), dtype=np.int64)
    return FockSpace(modes=modes, n_max=n_max, dim=dim, occupations=occupations)


def _single_mode_lowering(d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=np.complex128)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    return a


def ladder(space: FockSpace, mode: str, kind: str) -> np.ndarray:
    """Dense lowering or raising operator for one mode of the space.

    Built as kron(I, ..., a, ..., I) with the single-mode block at the
    position matching the basis ordering.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    pos = space.mode_position(mode)
    d = space.n_max + 1
    a = _single_mode_lowering(d)
    if kind == "raising":
        a = a.conj().T
    left = np.eye(d ** pos, dtype=np.complex128)
    right = np.eye(d ** (len(space.modes) - pos - 1), dtype=np.complex128)
    return np.kron(np.kron(left, a), right)


def number_operator(space: FockSpace, mode: str | None = None) -> np.ndarray:
    """Diagonal photon-number operator; totals over all modes when mode is None."""
    if mode is None:
        diag = space.occupations.sum(axis=1)
    else:
        diag = space.occupations[:, space.mode_position(mode)]
    return np.diag(diag.astype(np.complex128))


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


def _sector_block(n_max: int, total: int, alpha: float) -> tuple:
    """(total, n_p, block): the rotation's real block for pair number total.

    Rows and columns follow n_p ascending, with n_q = total - n_p.
    """
    n_p = np.arange(max(0, total - n_max), min(total, n_max) + 1)
    # <n_p+1, total-n_p-1| a+_p a_q |n_p, total-n_p>; the sector's ends
    # are where the cap stops a+_p or a+_q, as in the dense matrix
    hop = np.sqrt((n_p[:-1] + 1.0) * (total - n_p[:-1]))
    # exp(alpha G) = U exp(-i alpha lam) U+ for the Hermitian i G; G is
    # real, so the imaginary part is rounding and is dropped
    lam, u = np.linalg.eigh(np.diag(1j * hop, -1) - np.diag(1j * hop, 1))
    return total, n_p, ((u * np.exp(-1j * alpha * lam)) @ u.conj().T).real


def _sector_blocks(n_max: int, alpha: float):
    """Iterator of `_sector_block` over pair numbers 0..2 n_max."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("rotation angle must be finite")
    return (_sector_block(n_max, total, alpha) for total in range(2 * n_max + 1))


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
    blocks = _sector_blocks(space.n_max, alpha)
    pos_p, pos_q = _pair_positions(space, mode_pair)
    stride_p = (space.n_max + 1) ** (len(space.modes) - 1 - pos_p)
    stride_q = (space.n_max + 1) ** (len(space.modes) - 1 - pos_q)
    # one base index per occupation of the other modes, with p and q empty
    occ = space.occupations
    bases = np.flatnonzero((occ[:, pos_p] == 0) & (occ[:, pos_q] == 0))
    v = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for total, n_p, block in blocks:
        index = bases[:, None] + n_p * stride_p + (total - n_p) * stride_q
        v[index[:, :, None], index[:, None, :]] = block
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
    L the lowering map from sector N into N - 1. The defect is the same
    for every occupation of the other modes, so each sector's squared
    norm counts once per such occupation; no dense matrix is formed.
    """
    blocks = _sector_blocks(space.n_max, alpha)
    _pair_positions(space, mode_pair)
    c, s = math.cos(alpha), math.sin(alpha)
    top = space.n_max if restrict else 2 * space.n_max + 1
    sum_p = sum_q = 0.0
    for (_, prev_n_p, prev), (total, n_p, block) in itertools.pairwise(
            itertools.islice(blocks, top)):
        # a_p |n_p, n_q> = sqrt(n_p) |n_p-1, n_q>, a_q |n_p, n_q> = sqrt(n_q) |n_p, n_q-1>
        low_p = (prev_n_p[:, None] == n_p - 1) * np.sqrt(n_p)
        low_q = (prev_n_p[:, None] == n_p) * np.sqrt(total - n_p)
        sum_p += float(np.sum((prev.T @ low_p @ block - (c * low_p + s * low_q)) ** 2))
        sum_q += float(np.sum((prev.T @ low_q @ block - (c * low_q - s * low_p)) ** 2))
    copies = space.dim // (space.n_max + 1) ** 2
    return math.sqrt(copies * max(sum_p, sum_q))


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
    for x, cx in zip(ops, conjugated):
        for y, cy in zip(ops, conjugated):
            lhs = commutator(cx, cy)
            rhs = vh @ commutator(x, y) @ v
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
