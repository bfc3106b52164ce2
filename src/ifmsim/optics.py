"""Mirror and beamsplitter algebra for a two-path interferometer.

Every optical element is modeled as a plane with unit normal n. Momenta
reflect through the plane by the Householder matrix R = I - 2 n n^T, and
the pair of field amplitudes meeting at an element mixes by a real
two-port rotation whose angle is fixed by the element kind: pi/2 for a
mirror (full exchange), pi/4 for a balanced beamsplitter.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConfigurationError

_UNIT_TOL = 1e-9
_EYE3 = np.eye(3)
_EPS = sys.float_info.epsilon
# a squared length in this range leaves n.n far from overflow and underflow
_SQUARED_RANGE = (2.0**-1000, 2.0**1000)


def _read_only(value) -> np.ndarray:
    """A float copy of value that neither its holder nor the caller can write."""
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


class _Rebuilt:
    """Base of the values that pickling and copying rebuild through their constructor.

    Their checks then run again and their arrays come back read-only,
    which restoring the instance dictionary would not give; a mapping
    travels as a plain dict.
    """

    def __reduce__(self):
        args = (getattr(self, f.name) for f in fields(self) if f.init)
        return type(self), tuple(dict(a) if isinstance(a, Mapping) else a for a in args)


def _as_vec3(value, what: str) -> np.ndarray:
    arr = _read_only(value)
    if arr.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{what} must be finite")
    return arr


def _as_stack(value, what: str) -> np.ndarray:
    """A float copy of a (k, 3) stack of rows, one 3-vector each."""
    arr = np.array(value, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{what} must be a stack of 3-vectors, got shape {arr.shape}")
    return arr


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i].dot(b[i]) for every row i, to the bit.

    matmul of one row by one column runs the dtype's own dot loop, the
    one ndarray.dot runs on two 3-vectors; einsum sums in another order.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class PhotonMode(_Rebuilt):
    """A single-photon mode label: momentum 3-vector plus transverse polarization.

    The polarization must be a unit vector orthogonal to the momentum;
    both constraints are checked on construction.
    """

    momentum: np.ndarray
    polarization: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "momentum", _as_vec3(self.momentum, "momentum"))
        object.__setattr__(self, "polarization", _as_vec3(self.polarization, "polarization"))
        energy = self.energy
        if energy == 0.0:
            raise ValueError("momentum must be nonzero")
        if abs(math.sqrt(self.polarization.dot(self.polarization)) - 1.0) > _UNIT_TOL:
            raise ValueError("polarization must be a unit vector")
        if abs(float(self.polarization.dot(self.momentum))) > _UNIT_TOL * energy:
            raise ValueError("polarization must be transverse to the momentum")

    @property
    def energy(self) -> float:
        """Photon energy |p| (units with c = hbar = 1)."""
        # np.linalg.norm of a real vector is exactly sqrt(v.dot(v)), at
        # several times the cost on three components
        return math.sqrt(self.momentum.dot(self.momentum))

    def __eq__(self, other):
        if not isinstance(other, PhotonMode):
            return NotImplemented
        return np.array_equal(self.momentum, other.momentum) and np.array_equal(
            self.polarization, other.polarization
        )


@dataclass(frozen=True, eq=False)
class HouseholderReflection(_Rebuilt):
    """Reflection through the plane orthogonal to a unit normal."""

    normal: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", _read_only(self.normal))
        object.__setattr__(self, "matrix", _read_only(self.matrix))

    @classmethod
    def _owning(cls, normal: np.ndarray, matrix: np.ndarray) -> HouseholderReflection:
        """A reflection that freezes and keeps two fresh arrays no caller holds, uncopied."""
        reflection = object.__new__(cls)
        for name, arr in (("normal", normal), ("matrix", matrix)):
            arr.setflags(write=False)
            object.__setattr__(reflection, name, arr)
        return reflection

    def __eq__(self, other):
        if not isinstance(other, HouseholderReflection):
            return NotImplemented
        return np.array_equal(self.normal, other.normal)


def householder(normal) -> HouseholderReflection:
    """Build the reflection R = I - 2 n n^T for a (not necessarily unit) normal.

    R is symmetric and involutive with det R = -1. A zero normal has no
    reflection plane and is rejected.
    """
    n = _as_vec3(normal, "normal")
    x, y, z = n.tolist()
    if not _SQUARED_RANGE[0] <= x * x + y * y + z * z <= _SQUARED_RANGE[1]:
        largest = max(abs(x), abs(y), abs(z))
        if largest == 0.0:
            raise ConfigurationError("degenerate normal: zero vector defines no plane")
        # n.n would overflow or underflow: divide by the power of two of the
        # largest component first, an exact scaling that n / |n| undoes
        n = np.ldexp(n, -math.frexp(largest)[1])
    length = math.sqrt(n.dot(n))
    # skip the division when already unit to rounding: renormalizing would
    # only churn last bits and make normalization non-idempotent
    if abs(length - 1.0) > 4.0 * _EPS:
        n = n / length
    # n is _as_vec3's copy or made from it here, so no caller holds it
    return HouseholderReflection._owning(n, _EYE3 - 2.0 * (n[:, None] * n))


def _reflections(normals) -> tuple[np.ndarray, np.ndarray]:
    """(unit normals, matrices) of a (k, 3) stack of normals, row i as householder builds it.

    The rules, arithmetic and messages are householder's, row by row, so
    each row matches householder's normal and matrix to the bit. A stack
    with a row householder refuses raises what householder raises for
    the first such row.
    """
    n = _as_stack(normals, "normal")
    finite = np.isfinite(n).all(axis=1)
    refused = ~finite | ~n.any(axis=1)
    if refused.any():
        row = int(refused.argmax())
        if not finite[row]:
            raise ValueError("normal must be finite")
        raise ConfigurationError("degenerate normal: zero vector defines no plane")
    # householder squares Python floats, which never warn on overflow
    with np.errstate(all="ignore"):
        x, y, z = n.T
        squared = x * x + y * y + z * z
    out = ~((_SQUARED_RANGE[0] <= squared) & (squared <= _SQUARED_RANGE[1]))
    if out.any():
        largest = np.abs(n[out]).max(axis=1)
        n[out] = np.ldexp(n[out], -np.frexp(largest)[1][:, None])
    length = np.sqrt(_row_dots(n, n))
    # a row already unit to rounding is divided by 1.0, which keeps its bits
    n /= np.where(np.abs(length - 1.0) > 4.0 * _EPS, length, 1.0)[:, None]
    return n, _EYE3 - 2.0 * (n[:, :, None] * n[:, None, :])


_MODE_FAULTS = ("momentum must be finite", "polarization must be finite",
                "momentum must be nonzero", "polarization must be a unit vector",
                "polarization must be transverse to the momentum")


def _mode_energies(momenta, polarizations) -> np.ndarray:
    """Energies |p| of a (k, 3) stack of modes, row i checked as PhotonMode checks one.

    The rules, arithmetic and messages are PhotonMode's, row by row, so
    each energy matches PhotonMode.energy to the bit. A stack with a row
    PhotonMode refuses raises what PhotonMode raises for the first such
    row.
    """
    p, e = _as_stack(momenta, "momentum"), _as_stack(polarizations, "polarization")
    # PhotonMode's ndarray.dot never warns; a row that is not finite is
    # refused before its other checks are read
    with np.errstate(all="ignore"):
        energy = np.sqrt(_row_dots(p, p))
        faults = np.stack((~np.isfinite(p).all(axis=1), ~np.isfinite(e).all(axis=1),
                           energy == 0.0,
                           np.abs(np.sqrt(_row_dots(e, e)) - 1.0) > _UNIT_TOL,
                           np.abs(_row_dots(e, p)) > _UNIT_TOL * energy))
    refused = faults.any(axis=0)
    if refused.any():
        raise ValueError(_MODE_FAULTS[int(faults[:, refused.argmax()].argmax())])
    return energy


def reflect_mode(reflection: HouseholderReflection, mode: PhotonMode) -> PhotonMode:
    """Apply a reflection to both the momentum and the polarization of a mode."""
    return PhotonMode(
        momentum=reflection.matrix @ mode.momentum,
        polarization=reflection.matrix @ mode.polarization,
    )


class ElementKind(str, Enum):
    MIRROR = "mirror"
    BEAMSPLITTER = "beamsplitter"


_KIND_ANGLE = {ElementKind.MIRROR: math.pi / 2, ElementKind.BEAMSPLITTER: math.pi / 4}


@dataclass(frozen=True)
class OpticalElement:
    """A mirror or beamsplitter; a layout keys it by the vertex it sits at."""

    kind: ElementKind
    reflection: HouseholderReflection

    def __post_init__(self):
        object.__setattr__(self, "kind", ElementKind(self.kind))

    @property
    def alpha(self) -> float:
        """Two-port mixing angle implied by the element kind."""
        return _KIND_ANGLE[self.kind]


def two_port_rotation(alpha: float) -> np.ndarray:
    """Rotation [[cos a, sin a], [-sin a, cos a]] mixing the two port amplitudes.

    Acting on a column (u, v) of amplitudes, where u rides the port that
    keeps its momentum at the element and v rides the reflected port.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, s], [-s, c]])


def port_matrix(element: OpticalElement) -> np.ndarray:
    """Two-port amplitude matrix of an element (angle fixed by its kind)."""
    return two_port_rotation(element.alpha)


@dataclass(frozen=True, eq=False)
class GaussianPacket(_Rebuilt):
    """Gaussian envelope of a branch: center position, common width, carrier mode."""

    center: np.ndarray
    width: float
    carrier: PhotonMode

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec3(self.center, "center"))
        object.__setattr__(self, "width", float(self.width))
        if not self.width > 0.0:
            raise ValueError("packet width must be positive")

    def __eq__(self, other):
        if not isinstance(other, GaussianPacket):
            return NotImplemented
        return (
            np.array_equal(self.center, other.center)
            and self.width == other.width
            and self.carrier == other.carrier
        )


def packet_overlap(first: GaussianPacket, second: GaussianPacket) -> float:
    """|<w1|w2>| for two equal-width Gaussian envelopes.

    Equal widths are required; the overlap is exp(-d^2 / (4 sigma^2)) with
    d the center separation. Value is 1 at zero separation and strictly
    decreasing in d.
    """
    if first.width != second.width:
        raise ConfigurationError(
            f"packet widths differ ({first.width} vs {second.width}); "
            "overlap is defined here for equal widths only"
        )
    d2 = float(np.sum((first.center - second.center) ** 2))
    return math.exp(-d2 / (4.0 * first.width**2))


def locality_check(first: GaussianPacket, second: GaussianPacket, tolerance: float = 1e-6) -> bool:
    """True when two branch envelopes are effectively disjoint.

    The check passes when the overlap falls below `tolerance`, which must
    sit strictly inside (0, 1).
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError("locality tolerance must lie strictly between 0 and 1")
    return packet_overlap(first, second) < tolerance
