import io
import re
from pathlib import Path

import numpy as np
import pytest

from ifmsim import fock, optics, verify
from ifmsim.optics import HouseholderReflection, PhotonMode, householder


STACK = "stacked reflections and modes equal the scalar constructors"
_reflections = optics._reflections
_mode_energies = optics._mode_energies


def _failed_lines(owner, name, fault, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, fault)
        buffer = io.StringIO()
        assert not verify.run_verification(buffer)
    return re.findall(r"^\[FAIL\] (.+?): ", buffer.getvalue(), flags=re.MULTILINE)


def test_optics_checks_test_the_library_reflection(monkeypatch):
    # the reflection lines read the stack, and the stack line ties the
    # stack to the householder that layouts build with
    def skewed_stack(normals):
        unit, matrices = _reflections(normals)
        matrices[:, 0, 1] += 1e-10
        return unit, matrices

    def skewed(normal):
        reflection = householder(normal)
        matrix = reflection.matrix.copy()
        matrix[0, 1] += 1e-10
        return HouseholderReflection(normal=reflection.normal, matrix=matrix)

    failed = _failed_lines(optics, "_reflections", skewed_stack, monkeypatch)
    assert {"reflection involutive", STACK} <= set(failed)
    assert _failed_lines(verify, "householder", skewed, monkeypatch) == [STACK]


def test_optics_checks_redraw_rows_under_their_floors(monkeypatch):
    # a zero first row in each full-size draw: a zero normal, a zero momentum
    # and a zero polarization must each be drawn again, not reach the checks
    default_rng = np.random.default_rng

    class ZeroFirstRow:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def normal(self, size):
            out = self.rng.normal(size=size)
            if size[0] == SAMPLES:
                out[0] = 0.0
            return out

        def uniform(self, low, high, size):
            return self.rng.uniform(low, high, size)

    SAMPLES = 50
    monkeypatch.setattr(np.random, "default_rng", ZeroFirstRow)
    results = verify.optics_checks(samples=SAMPLES)
    assert all(result.passed for result in results)


def test_optics_checks_test_the_library_photon_mode(monkeypatch):
    # |p| after the reflection is compared with the stack's energies, and
    # the stack line ties those to the library's own mode energy
    class Skewed(PhotonMode):
        @property
        def energy(self):
            return super().energy + 1e-10

    failed = _failed_lines(optics, "_mode_energies",
                           lambda p, e: _mode_energies(p, e) + 1e-10, monkeypatch)
    assert {"reflection preserves |p|", STACK} <= set(failed)
    assert _failed_lines(verify, "PhotonMode", Skewed, monkeypatch) == [STACK]
    # a NaN energy is a gap too, though the gaps before it are 0
    failed = _failed_lines(optics, "_mode_energies",
                           lambda p, e: _mode_energies(p, e) * np.nan, monkeypatch)
    assert STACK in failed


def test_stack_equals_the_scalar_constructors_on_every_verify_row(monkeypatch):
    # every row verify draws, not only the subset its stack line compares
    seen = {}

    def spy(name):
        original = getattr(optics, name)

        def record(*args):
            seen[name] = (args, original(*args))
            return seen[name][1]
        return record

    for name in ("_reflections", "_mode_energies"):
        monkeypatch.setattr(optics, name, spy(name))
    assert all(result.passed for result in verify.optics_checks())
    (normals,), (unit, matrices) = seen["_reflections"]
    (momenta, polarizations), energies = seen["_mode_energies"]
    assert len(normals) == len(momenta) == 1000
    built = [householder(normal) for normal in normals]
    assert np.stack([b.normal for b in built]).tobytes() == unit.tobytes()
    assert np.stack([b.matrix for b in built]).tobytes() == matrices.tobytes()
    scalar = [PhotonMode(momentum=m, polarization=e).energy
              for m, e in zip(momenta, polarizations)]
    assert np.array(scalar).tobytes() == energies.tobytes()


POWER = "sector blocks equal the symmetric power of the two-port rotation"
_block = fock._sector_block
_eigensystem = fock.FockSpace._sector_eigensystem
_positions = fock._pair_positions


def _skewed_hop(space, total):
    # the first hopping amplitude of each sector's generator, 1% too large
    n_p, lam, u = _eigensystem(space, total)
    generator = (u * lam) @ u.conj().T
    generator[0, 1:2] *= 1.01
    generator[1:2, 0] *= 1.01
    return (n_p, *np.linalg.eigh(generator))


def _transposed(space, total, alpha):
    total, n_p, block = _block(space, total, alpha)
    return total, n_p, block.T


# fault -> (owner, name, replacement); abs(alpha) shows only at the
# line's negative angle, and no other line sees the strides swap
SECTOR_FAULTS = {
    "hopping amplitude x1.01": (fock.FockSpace, "_sector_eigensystem", _skewed_hop),
    "angle x1.01": (fock, "_sector_block", lambda s, t, a: _block(s, t, 1.01 * a)),
    "angle sign flipped": (fock, "_sector_block", lambda s, t, a: _block(s, t, -a)),
    "transposed sector block": (fock, "_sector_block", _transposed),
    "abs(alpha)": (fock, "_sector_block", lambda s, t, a: _block(s, t, abs(a))),
    "p and q strides swapped": (fock, "_pair_positions",
                                lambda s, pair: _positions(s, pair)[::-1]),
}


@pytest.mark.parametrize("fault", SECTOR_FAULTS)
def test_symmetric_power_line_catches_sector_faults(fault, monkeypatch):
    owner, name, replacement = SECTOR_FAULTS[fault]
    monkeypatch.setattr(owner, name, replacement)
    buffer = io.StringIO()
    assert not verify.run_verification(buffer)
    assert f"[FAIL] {POWER}: " in buffer.getvalue()


def test_readme_lists_the_verify_lines_in_order():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Verification and tests\n", 1)[1]
    listed = re.findall(r"^\d+\. `(.+)`$", section.split("\n## ", 1)[0], flags=re.MULTILINE)
    assert listed == [result.name for result in verify.run_checks()]
