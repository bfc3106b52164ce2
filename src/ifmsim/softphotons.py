"""Low-energy photon emission statistics for charged scattering.

Any scattering of charges radiates arbitrarily soft photons. Within an
energy window [E-, E+] the number of emitted photons is Poisson with
mean mu = A ln(E+/E-), where A depends only on the charges and
velocities of the in/out legs. For a single charge scattered from rest
to speed beta (one incoming leg at rest, one outgoing at beta) the
factor collapses to

    A(beta) = (2 e^2 / (2 pi)^2) (arctanh(beta)/beta - 1),

quoted here in units of e^2. For any set of legs the factor sums
arctanh(b)/b over pairs of legs with weights q_n q_m eta_n eta_m
(Weinberg, Phys. Rev. 140, B516 (1965)). Charge conservation makes the
weights sum to zero, so the 1 that arctanh(b)/b tends to at small b
cancels exactly. The sum is therefore taken over arctanh(b)/b - 1,
which below b = 0.5 is its even series in b^2, summed to convergence,
so it keeps full precision for slow legs. A is finite for
beta < 1 but the photon count inside a window reaching E- = 0 diverges,
as does A itself at beta = 1; both regimes raise DivergenceError rather
than returning infinities.

These emissions pollute an interaction-free measurement: an absorber
firing on one branch radiates, and a soft photon landing in a detector
mimics a photon count. The correction here multiplies the absorption
weight by the probability that at least one emitted photon enters the
detector's angular acceptance, and books those joint events explicitly
so the probability budget still closes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, integer
from .interferometer import DetectionReport

# e^2 = 4 pi alpha in Heaviside-Lorentz units, alpha = 1/137.035999
E_SQUARED_HEAVISIDE_LORENTZ = 4.0 * math.pi / 137.035999

# below this speed arctanh(beta)/beta - 1 loses digits to cancellation (a
# relative 6e-14 near 0.1, 5e-10 near 1e-3); the even series in beta^2,
# summed to convergence in at most 25 terms, stays within 1e-15 there, and
# the atanh form within 3e-15 above it (both against 50 digits)
SERIES_BETA_CROSSOVER = 0.5

_TWO_PI_SQ = (2.0 * math.pi) ** 2


def _real(value, name: str) -> float:
    """value as a float; anything but a real number, a bool included, is refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {type(value).__name__} {value!r}")


@dataclass(frozen=True)
class ProcessLeg:
    """One external charged leg: charge, direction flag, and speed.

    eta is +1 for an outgoing leg and -1 for an incoming one; velocity
    is the speed fraction beta in [0, 1).
    """

    charge: float
    eta: int
    velocity: float

    def __post_init__(self):
        object.__setattr__(self, "charge", _real(self.charge, "leg charge"))
        if not math.isfinite(self.charge):
            raise ValueError(f"leg charge must be finite, got {self.charge}")
        object.__setattr__(self, "eta", integer(self.eta, "eta"))
        if self.eta not in (-1, 1):
            raise ValueError(f"eta must be +1 (outgoing) or -1 (incoming), got {self.eta}")
        object.__setattr__(self, "velocity", _real(self.velocity, "leg velocity"))
        if not self.velocity >= 0.0:
            raise ValueError(f"leg velocity must be nonnegative, got {self.velocity}")
        if self.velocity >= 1.0:
            raise DivergenceError(
                f"leg velocity {self.velocity} reaches the speed of light; "
                "the emission factor diverges as beta -> 1"
            )


@dataclass(frozen=True)
class SoftWindow:
    """Detected-photon energy window [e_minus, e_plus].

    The lower edge must be positive: the expected photon count grows as
    ln(1/E-) and diverges when the window opens down to zero energy.
    Equal edges are allowed and give an empty window (mean zero).
    """

    e_minus: float
    e_plus: float

    def __post_init__(self):
        object.__setattr__(self, "e_minus", float(self.e_minus))
        object.__setattr__(self, "e_plus", float(self.e_plus))
        if not math.isfinite(self.e_minus):
            raise ValueError(f"window lower edge must be finite, got {self.e_minus}")
        if not self.e_minus > 0.0:
            raise DivergenceError(
                f"window lower edge must be positive, got {self.e_minus}; "
                "the soft-photon count diverges logarithmically as it reaches zero"
            )
        if not math.isfinite(self.e_plus) or self.e_plus < self.e_minus:
            raise ValueError(
                f"window upper edge {self.e_plus} must be finite and not below "
                f"the lower edge {self.e_minus}"
            )

    @property
    def log_ratio(self) -> float:
        ratio = self.e_plus / self.e_minus
        if ratio == math.inf:  # the quotient overflows where the logs do not
            return math.log(self.e_plus) - math.log(self.e_minus)
        return math.log(ratio)


def _arctanh_over_beta_excess(beta: float) -> float:
    """arctanh(beta)/beta - 1, kept cancellation-free at small beta.

    Below the crossover the leading 1 is dropped analytically instead of
    being added and subtracted back, which would erase the tiny remainder:
    the even series sum_{k>=1} beta^(2k)/(2k+1) is summed until a term no
    longer changes the sum (25 terms just below the crossover).
    """
    if beta >= SERIES_BETA_CROSSOVER:
        return math.atanh(beta) / beta - 1.0
    total, power, odd = 0.0, beta * beta, 3.0
    while total + power / odd != total:
        total += power / odd
        power *= beta * beta
        odd += 2.0
    return total


def weinberg_factor_fermion(beta: float) -> float:
    """Emission factor for one charge kicked from rest to speed beta.

    Returned in units of e^2. Grows like beta^2/3 near zero speed and
    diverges logarithmically as beta -> 1, where DivergenceError is
    raised with the physical reason.
    """
    beta = float(beta)
    if not beta >= 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if beta >= 1.0:
        raise DivergenceError(
            f"beta = {beta} is at or beyond the speed of light; arctanh(beta) "
            "and the emission factor diverge in that limit"
        )
    return (2.0 / _TWO_PI_SQ) * _arctanh_over_beta_excess(beta)


def weinberg_factor_general(legs, pairwise_beta) -> float:
    """Emission factor for an arbitrary set of external charged legs.

    pairwise_beta[n, m] is the relative speed of legs n and m: the matrix
    must be symmetric with a zero diagonal, entries in [0, 1). The factor
    is, in units of e^2,

        A = -(2 pi)^-2 sum_{n,m} q_n q_m eta_n eta_m arctanh(b_nm)/b_nm,

    with the diagonal terms taking the b -> 0 limit of 1. The legs must
    conserve charge, sum_n eta_n q_n = 0 to a relative 1e-12 of
    sum_n |q_n|; otherwise A can come out negative. The weights then sum
    to (sum_n eta_n q_n)^2 = 0, so each term is taken as
    arctanh(b_nm)/b_nm - 1 and the diagonal drops out. Each pairwise
    speed must also fit the legs' own speeds: with y = atanh(velocity),
    atanh(b_nm) lies in [|y_n - y_m|, y_n + y_m] to within 1e-9. For one
    incoming and one outgoing leg of unit charge this reduces exactly to
    `weinberg_factor_fermion` of the outgoing speed when the incoming
    leg is at rest.
    """
    legs = list(legs)
    if not legs:
        raise ValueError("at least one process leg is required")
    net_charge = sum(leg.eta * leg.charge for leg in legs)
    if abs(net_charge) > 1e-12 * sum(abs(leg.charge) for leg in legs):
        raise ValueError(
            f"charge conservation requires sum eta_n q_n = 0, got {net_charge:g}; "
            "the soft-photon factor is defined only for charge-conserving processes"
        )
    entries = np.asarray(pairwise_beta, dtype=object)
    n = len(legs)
    if entries.shape != (n, n):
        raise ValueError(
            f"pairwise_beta must be {n}x{n} for {n} legs, got shape {entries.shape}"
        )
    beta = np.reshape([_real(b, "pairwise_beta entry") for b in entries.flat], (n, n))
    if not np.array_equal(beta, beta.T):
        raise ValueError("pairwise_beta must be symmetric")
    if np.any(np.diag(beta) != 0.0):
        raise ValueError("pairwise_beta must have a zero diagonal")
    if np.any(beta < 0.0):
        raise ValueError("pairwise relative speeds must be nonnegative")
    if np.any(beta >= 1.0):
        raise DivergenceError(
            "a pairwise relative speed reaches 1; the emission factor diverges "
            "for lightlike relative motion"
        )
    # the relative rapidity of two legs lies between the difference and the
    # sum of their own rapidities (antiparallel and parallel motion)
    rapidity = [math.atanh(leg.velocity) for leg in legs]
    for i in range(n):
        for j in range(i + 1, n):
            pair = math.atanh(float(beta[i, j]))
            low = abs(rapidity[i] - rapidity[j])
            high = rapidity[i] + rapidity[j]
            if not low - 1e-9 <= pair <= high + 1e-9:
                raise ValueError(
                    f"legs {i} and {j}: pairwise rapidity atanh(b_nm) = {pair:.6g} "
                    f"lies outside the rapidity bound [|y_n - y_m|, y_n + y_m] = "
                    f"[{low:.6g}, {high:.6g}] set by their speeds, y = atanh(velocity)"
                )
    total = 0.0
    for i, leg_i in enumerate(legs):
        for j, leg_j in enumerate(legs):
            weight = leg_i.charge * leg_j.charge * leg_i.eta * leg_j.eta
            total += weight * _arctanh_over_beta_excess(float(beta[i, j]))
    return -total / _TWO_PI_SQ


def mean_photons(factor: float, window: SoftWindow) -> float:
    """Expected photon count mu = A ln(E+/E-) inside the window."""
    factor = float(factor)
    if not 0.0 <= factor < math.inf:
        raise ValueError(f"emission factor must be finite and nonnegative, got {factor}")
    return factor * window.log_ratio


@dataclass(frozen=True)
class PollutionConfig:
    """Angular acceptance of a detector for stray soft photons.

    solid_angle_fraction is the fraction of the emission sphere the
    detector subtends, with soft photons emitted isotropically.
    """

    solid_angle_fraction: float

    def __post_init__(self):
        object.__setattr__(self, "solid_angle_fraction", float(self.solid_angle_fraction))
        if not 0.0 < self.solid_angle_fraction <= 1.0:
            raise ValueError(
                f"solid angle fraction must lie in (0, 1], got {self.solid_angle_fraction}"
            )


def pollution_probability(mu: float, config: PollutionConfig) -> float:
    """Probability that at least one soft photon lands in the detector.

    Photons entering the acceptance are Poisson-thinned with rate
    mu * f, so the result is 1 - exp(-mu f), computed with expm1 to keep
    precision when the rate is tiny.
    """
    mu = float(mu)
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mean photon count must be finite and nonnegative, got {mu}")
    return -math.expm1(-mu * config.solid_angle_fraction)


@dataclass
class CorrectedReport:
    """Detection probabilities after folding in soft-photon pollution.

    p_joint is the probability of an absorption accompanied by a stray
    detector hit; those events are double-booked in the raised detector
    rows, so the budget closes as p_d1 + p_d2 + p_absorbed - p_joint = 1.
    """

    p_d1: float
    p_d2: float
    p_absorbed: float
    p_joint: float


def corrected_probabilities(report: DetectionReport, pollution: float) -> CorrectedReport:
    """Fold stray-photon pollution into a detection report.

    Each absorption event fakes a detector count with probability
    `pollution`; the fake lands on D1 or D2 with equal odds. The input
    report is not modified.
    """
    pollution = float(pollution)
    if not 0.0 <= pollution <= 1.0:
        raise ValueError(f"pollution probability must lie in [0, 1], got {pollution}")
    joint = report.p_absorbed * pollution
    return CorrectedReport(
        p_d1=report.p_d1 + joint * 0.5,
        p_d2=report.p_d2 + joint * 0.5,
        p_absorbed=report.p_absorbed,
        p_joint=joint,
    )
