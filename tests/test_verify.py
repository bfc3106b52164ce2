import io

import numpy as np

from ifmsim import verify
from ifmsim.optics import HouseholderReflection, PhotonMode, householder


def test_optics_checks_test_the_library_reflection(monkeypatch):
    # the batched checks must still go through the module's own householder
    def skewed(normal):
        reflection = householder(normal)
        matrix = reflection.matrix.copy()
        matrix[0, 1] += 1e-10
        return HouseholderReflection(normal=reflection.normal, matrix=matrix)

    monkeypatch.setattr(verify, "householder", skewed)
    buffer = io.StringIO()
    assert not verify.run_verification(buffer)
    assert "[FAIL] reflection involutive: " in buffer.getvalue()


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
    # |p| after the reflection is compared with the library's own mode energy
    class Skewed(PhotonMode):
        @property
        def energy(self):
            return super().energy + 1e-10

    monkeypatch.setattr(verify, "PhotonMode", Skewed)
    buffer = io.StringIO()
    assert not verify.run_verification(buffer)
    assert "[FAIL] reflection preserves |p|: " in buffer.getvalue()
