"""Residual checks of the operator identities behind the simulator.

Each check computes a numerical residual and compares it against a
pinned tolerance; `run_verification` prints one line per check and
reports overall success. These run the truncated occupation-number
oracle against the closed-form optics, so a failure flags a real
algebra break, not a loose test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock
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


def fock_checks(n_max: int = 6) -> list[CheckResult]:
    pair = ("p", "q")
    space = fock.build_space(pair, n_max)
    results = []

    worst = 0.0
    for alpha in (math.pi / 7, math.pi / 4, 1.0):
        v = fock.v_unitary(space, pair, alpha)
        worst = max(worst, float(np.max(np.abs(v.conj().T @ v - np.eye(space.dim)))))
    results.append(CheckResult("rotation unitarity", worst, 1e-12))

    worst = max(fock.rotation_check(space, pair, alpha) for alpha in _ANGLE_GRID)
    results.append(CheckResult("ladder conjugation (restricted)", worst, 1e-9))

    # the same residual on the full truncated space must blow up: the
    # truncation edge is real, and confinement to the buffered subspace
    # is exactly what the restricted check certifies
    full = fock.rotation_check(space, pair, math.pi / 4, restrict=False)
    confinement = 1.0 if full < 1e-3 else 0.0
    results.append(CheckResult("truncation edge visible (full space)", confinement, 0.0))

    worst = max(fock.commutator_preservation_check(space, pair, alpha)
                for alpha in (math.pi / 7, math.pi / 4, math.pi / 2))
    results.append(CheckResult("commutator preservation", worst, 1e-10))

    worst = 0.0
    for alpha in (0.3, math.pi / 4, 2.0):
        prod = fock.v_unitary(space, pair, alpha) @ fock.v_unitary(space, pair, -alpha)
        worst = max(worst, float(np.max(np.abs(prod - np.eye(space.dim)))))
    results.append(CheckResult("inverse at negated angle", worst, 1e-12))

    worst = 0.0
    for a, b in ((0.2, 0.5), (math.pi / 4, math.pi / 2), (-0.7, 1.1)):
        lhs = fock.v_unitary(space, pair, a) @ fock.v_unitary(space, pair, b)
        rhs = fock.v_unitary(space, pair, a + b)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    results.append(CheckResult("one-parameter group law", worst, 1e-10))

    n_total = fock.number_operator(space)
    worst = 0.0
    for alpha in (math.pi / 7, math.pi / 2):
        v = fock.v_unitary(space, pair, alpha)
        worst = max(worst, float(np.max(np.abs(fock.commutator(n_total, v)))))
    results.append(CheckResult("photon number conserved", worst, 1e-10))

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

    # the library builds (and validates) every reflection and every mode;
    # only the checks on them run over the stacks
    r, modes = zip(*[(householder(normal).matrix, PhotonMode(momentum=m, polarization=e))
                     for normal, m, e in zip(normals, p, pol)])
    r = np.stack(r)
    worst_det = float(np.max(np.abs(np.linalg.det(r) + 1.0)))
    worst_invol = float(np.max(np.abs(r @ r - np.eye(3))))
    worst_orth = float(np.max(np.abs(r.transpose(0, 2, 1) @ r - np.eye(3))))
    out_p = np.einsum("nij,nj->ni", r, np.stack([mode.momentum for mode in modes]))
    out_pol = np.einsum("nij,nj->ni", r, np.stack([mode.polarization for mode in modes]))
    energy = np.array([mode.energy for mode in modes])
    worst_energy = float(np.max(np.abs(np.linalg.norm(out_p, axis=1) - energy)))
    worst_transverse = float(np.max(np.abs(np.einsum("ni,ni->n", out_pol, out_p))))
    results.append(CheckResult("reflection preserves |p|", worst_energy, 1e-12))
    results.append(CheckResult("reflection keeps transversality", worst_transverse, 1e-11))
    results.append(CheckResult("reflection determinant -1", worst_det, 1e-12))
    results.append(CheckResult("reflection involutive", worst_invol, 1e-14))
    results.append(CheckResult("reflection orthogonal", worst_orth, 1e-14))

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
