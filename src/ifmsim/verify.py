"""Residual checks of the operator identities behind the simulator.

Each check computes a numerical residual and compares it against a
pinned tolerance; `run_verification` prints one line per check and
reports overall success. These run the truncated occupation-number
oracle against the closed-form optics, so a failure flags a real
algebra break, not a loose test.

The Fock lines rest on `rotation unitarity`, the only one that also
covers the sectors the cap truncates. Each sector it leaves whole must
then equal the N-th symmetric power of the 2x2 rotation, built here
from the 2x2 map alone (Schwinger, "On angular momentum", 1952; Campos,
Saleh & Teich, PRA 40, 1371 (1989)): the field operators' linear map
fixes every multi-photon amplitude. No line restates unitarity.
Commutator preservation, the inverse at the negated angle, the group
law and photon-number conservation hold by construction for any
unitary assembled, as `fock.v_unitary` is, from one eigensystem per
sector of fixed pair number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock, optics
from .optics import GaussianPacket, PhotonMode, householder, packet_overlap, two_port_rotation

_ANGLE_GRID = tuple(np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)) + (
    math.pi / 7, math.pi / 4, math.pi / 2)


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _symmetric_power(space: fock.FockSpace, alpha: float) -> tuple[list, np.ndarray]:
    """(columns, reference): a two-mode space's rotation on every sector the cap leaves whole.

    Built from the 2x2 map alone, which sends a+_p to c a+_p - s a+_q and
    a+_q to s a+_p + c a+_q. Column |n, N-n> holds the coefficients of
    (c a+_p - s a+_q)^n (s a+_p + c a+_q)^(N-n) / sqrt(n! (N-n)!), and row
    |k, N-k> reads the coefficient of a+_p^k a+_q^(N-k) times
    sqrt(k! (N-k)!). Indexed by the power of a+_p, multiplying a
    coefficient column by (x a+_p + y a+_q) is the two-tap step
    col[k] -> y col[k] + x col[k-1], as np.convolve(col, (y, x)) takes it.
    So sector N's unscaled columns follow from sector N-1's: column n < N
    is column n of N-1 times (s a+_p + c a+_q), and column N is column N-1
    of N-1 times (c a+_p - s a+_q). The factors are the ones a product of
    N two-tap convolutions would apply, in the same order, and each entry
    is a sum of at most two products. reference holds the dense columns,
    N <= n_max, in that order.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    width = (space.n_max + 1) * (space.n_max + 2) // 2
    columns, reference = [], np.zeros((space.dim, width))
    powers = np.ones((1, 1))
    for total in range(space.n_max + 1):
        if total:
            # the previous sector's columns, its last one taken twice
            base = np.append(powers, powers[:, -1:], axis=1)
            powers = np.zeros((total + 1, total + 1))
            powers[:-1] = base * ([c] * total + [-s])
            powers[1:] += base * ([s] * total + [c])
        index = [space.index_of((k, total - k)) for k in range(total + 1)]
        norm = np.sqrt([math.factorial(k) * math.factorial(total - k) for k in range(total + 1)])
        reference[index, len(columns):len(columns) + total + 1] = powers * norm[:, None] / norm
        columns += index
    return columns, reference


def fock_checks(n_max: int = 6) -> list[CheckResult]:
    pair = ("p", "q")
    space = fock.build_space(pair, n_max)

    unitarity = power = 0.0
    for alpha in (math.pi / 7, -1.0, 2.0):
        v = fock.v_unitary(space, pair, alpha)
        unitarity = max(unitarity, float(np.max(np.abs(v.conj().T @ v - np.eye(space.dim)))))
        columns, reference = _symmetric_power(space, alpha)
        power = max(power, float(np.max(np.abs(v[:, columns] - reference))))
    results = [CheckResult("rotation unitarity", unitarity, 1e-12),
               CheckResult("sector blocks equal the symmetric power of the two-port rotation",
                           power, 1e-12)]

    worst = max(fock.rotation_check(space, pair, alpha) for alpha in _ANGLE_GRID)
    results.append(CheckResult("ladder conjugation (restricted)", worst, 1e-9))

    # the same residual on the full truncated space must blow up: the
    # truncation edge is real, and confinement to the buffered subspace
    # is exactly what the restricted check certifies
    full = fock.rotation_check(space, pair, math.pi / 4, restrict=False)
    confinement = 1.0 if full < 1e-3 else 0.0
    results.append(CheckResult("truncation edge visible (full space)", confinement, 0.0))

    # one photon in each input of a balanced splitter: the two ways of
    # leaving by different ports cancel, so no coincidence is ever seen
    one_one = space.index_of((1, 1))
    v = fock.v_unitary(space, pair, math.pi / 4)
    coincidence = float(abs(v[one_one, one_one]) ** 2)
    results.append(CheckResult("Hong-Ou-Mandel coincidence (balanced splitter)",
                               coincidence, 1e-12))

    # [a, a+] is the identity except a single -n_max entry at the top state
    a = fock.ladder(space, "p", "lowering")
    comm = fock.commutator(a, a.conj().T)
    expected = np.diag(np.where(space.occupations[:, 0] == n_max, -n_max, 1.0))
    worst = float(np.max(np.abs(comm - expected)))
    results.append(CheckResult("ladder truncation signature", worst, 1e-12))

    return results


def optics_checks(samples: int = 1000, seed: int = 20260822) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    # every draw is a (samples, 3) array; a row under its floor is drawn again
    normals = rng.normal(size=(samples, 3))
    while (short := np.linalg.norm(normals, axis=1) < 1e-3).any():
        normals[short] = rng.normal(size=(short.sum(), 3))
    p = rng.normal(size=(samples, 3)) * rng.uniform(0.1, 10.0, size=(samples, 1))
    while (short := np.linalg.norm(p, axis=1) < 1e-6).any():
        p[short] = rng.normal(size=(short.sum(), 3))
    pol = np.cross(p, rng.normal(size=(samples, 3)))
    while (short := np.linalg.norm(pol, axis=1) < 1e-9).any():
        pol[short] = np.cross(p[short], rng.normal(size=(short.sum(), 3)))
    pol /= np.linalg.norm(pol, axis=1, keepdims=True)

    # the reflection lines build and check every row in one stack
    unit, r = optics._reflections(normals)
    energy = optics._mode_energies(p, pol)
    worst_det = float(np.max(np.abs(np.linalg.det(r) + 1.0)))
    worst_invol = float(np.max(np.abs(r @ r - np.eye(3))))
    worst_orth = float(np.max(np.abs(r.transpose(0, 2, 1) @ r - np.eye(3))))
    out_p = np.einsum("nij,nj->ni", r, p)
    out_pol = np.einsum("nij,nj->ni", r, pol)
    worst_energy = float(np.max(np.abs(np.linalg.norm(out_p, axis=1) - energy)))
    worst_transverse = float(np.max(np.abs(np.einsum("ni,ni->n", out_pol, out_p))))
    results.append(CheckResult("reflection preserves |p|", worst_energy, 1e-12))
    results.append(CheckResult("reflection keeps transversality", worst_transverse, 1e-11))
    results.append(CheckResult("reflection determinant -1", worst_det, 1e-12))
    results.append(CheckResult("reflection involutive", worst_invol, 1e-14))
    results.append(CheckResult("reflection orthogonal", worst_orth, 1e-14))

    # the stack must equal what the scalar constructors, which layouts
    # use, build from the same rows; the draws are independent, so the
    # first 64 rows are as random a subset as any
    head = slice(0, 64)
    built = [householder(normal) for normal in normals[head]]
    energies = [PhotonMode(momentum=m, polarization=e).energy for m, e in zip(p[head], pol[head])]
    # np.max, unlike max, keeps a NaN gap
    gap = np.max([np.max(np.abs(np.stack([b.normal for b in built]) - unit[head])),
                  np.max(np.abs(np.stack([b.matrix for b in built]) - r[head])),
                  np.max(np.abs(np.array(energies) - energy[head]))])
    results.append(CheckResult("stacked reflections and modes equal the scalar constructors",
                               float(gap), 0.0))

    worst = 0.0
    for alpha in _ANGLE_GRID:
        m = two_port_rotation(alpha)
        worst = max(worst, float(np.max(np.abs(m @ two_port_rotation(-alpha) - np.eye(2)))))
        worst = max(worst, abs(float(np.linalg.det(m)) - 1.0))
    results.append(CheckResult("port rotation inverse and det", worst, 1e-15))

    carrier = PhotonMode(momentum=(1.0, 0.0, 0.0), polarization=(0.0, 0.0, 1.0))
    base = GaussianPacket(center=(0.0, 0.0, 0.0), width=0.3, carrier=carrier)
    overlaps = [packet_overlap(base, GaussianPacket(center=(d, 0.0, 0.0), width=0.3,
                                                    carrier=carrier))
                for d in np.linspace(0.0, 5.0, 50)]
    rise = max(b - a for a, b in zip(overlaps, overlaps[1:]))
    results.append(CheckResult("packet overlap monotone", max(0.0, rise), 0.0))

    return results


def run_checks() -> list[CheckResult]:
    """Every check of the suite, in report order."""
    return fock_checks() + optics_checks()


def run_verification(stream=None) -> bool:
    """Run every check, print one PASS/FAIL line each, return overall success."""
    if stream is None:
        stream = sys.stdout
    results = run_checks()
    ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        ok = ok and result.passed
        print(f"[{status}] {result.name}: residual {result.residual:.3e} "
              f"(tolerance {result.tolerance:.1e})", file=stream)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed", file=stream)
    return ok
