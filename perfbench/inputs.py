"""Seeded inputs for the benchmark and the closed-form answers they must give.

Standard library only, so that generating the `cli_cold` request files
costs no numpy or ifmsim import. Layout text is written here, not by
`ifmsim.serialize_layout`, so the program under test never produces its
own inputs.
"""

from __future__ import annotations

import cmath
import math
import random
import re

# Absolute tolerance on every probability, fixed before measuring. The
# largest phase the generators produce is about 60 rad, where float64
# rounding in the phase stays below 1e-13.
PROB_TOL = 1e-12
# Relative tolerance on the closed-form soft-photon quantities.
SOFT_RTOL = 1e-12
# Allowed residual of the large-space ladder conjugation.
LARGE_SPACE_TOL = 1e-9
# Shot tallies must sit within this many standard deviations of n p.
SHOT_SIGMAS = 5.0

E_SQUARED_HL = 4.0 * math.pi / 137.035999
_NORMAL = "0.70710678118654746 -0.70710678118654746 0"
_DIAG_RE = re.compile(r":(\d+):(\d+): error: ")


def layout_spec(rng: random.Random, obstruction: str = "any") -> dict:
    """Draw one square layout.

    Varies the square's side, the four declared arm lengths, |p|, the
    obstruction (arm and efficiency in [0, 1]) and the D1/D2 port
    mapping. obstruction is "none", "always" or "any".
    """
    arm = None
    if obstruction == "always" or (obstruction == "any" and rng.random() < 0.6):
        arm = rng.choice(("lower", "upper"))
    efficiency = 0.0
    if arm is not None:
        efficiency = rng.choice((1.0, 0.0, rng.random(), rng.random()))
        if obstruction == "always":
            efficiency = rng.uniform(0.2, 1.0)
    return {
        "side": rng.uniform(1.0, 3.0),
        "p": rng.uniform(0.5, 5.0),
        "lengths": {label: rng.uniform(0.5, 3.0)
                    for label in ("lower", "upper", "lower_exit", "upper_exit")},
        "bomb": arm,
        "efficiency": efficiency,
        "d1_port": rng.choice(("a", "b")),
    }


def layout_text(spec: dict, rng: random.Random) -> str:
    """Layout file text for a spec, with its directives in a seeded order."""
    s = repr(spec["side"])
    lengths = spec["lengths"]
    lines = [
        "vertex L11 0 0 0",
        f"vertex L12 {s} 0 0",
        f"vertex L21 0 {s} 0",
        f"vertex L22 {s} {s} 0",
        f"beamsplitter L11 normal {_NORMAL}",
        f"mirror L12 normal {_NORMAL}",
        f"mirror L21 normal {_NORMAL}",
        f"beamsplitter L22 normal {_NORMAL}",
        f"arm L11 L12 length {lengths['lower']!r} label lower",
        f"arm L11 L21 length {lengths['upper']!r} label upper",
        f"arm L12 L22 length {lengths['lower_exit']!r} label lower_exit",
        f"arm L21 L22 length {lengths['upper_exit']!r} label upper_exit",
        f"source momentum {spec['p']!r} 0 0 polarization 0 0 1 width 0.05",
        f"detector D1 port {spec['d1_port']}",
        f"detector D2 port {'b' if spec['d1_port'] == 'a' else 'a'}",
    ]
    if spec["bomb"] is not None:
        lines.append(f"bomb arm {spec['bomb']} efficiency {spec['efficiency']!r}")
    rng.shuffle(lines)
    return "# generated layout\n" + "\n".join(lines) + "\n"


def malformed_text(rng: random.Random) -> str:
    """A layout with exactly one seeded defect that the parser must report."""
    text = layout_text(layout_spec(rng), rng)
    lines = text.splitlines()
    defect = rng.randrange(5)
    if defect == 0:
        i = next(k for k, line in enumerate(lines) if line.startswith("arm "))
        lines[i] = lines[i].replace(" length ", " length 1.0.", 1)
    elif defect == 1:
        lines.insert(rng.randrange(1, len(lines)), "lens L11 normal 1 0 0")
    elif defect == 2:
        lines = [line for line in lines if not line.startswith("bomb ")]
        lines.append(f"bomb arm lower efficiency {rng.uniform(1.01, 3.0)!r}")
    elif defect == 3:
        i = next(k for k, line in enumerate(lines) if line.startswith("vertex L2"))
        del lines[i]
    else:
        i = next(k for k, line in enumerate(lines) if line.startswith("arm "))
        head, _, tail = lines[i].partition(" length ")
        lines[i] = f"{head} length -{tail}"
    return "\n".join(lines) + "\n"


def expected_ports(spec: dict, extra_lower: float = 0.0) -> tuple[float, float, float]:
    """Closed-form (p_d1, p_d2, p_absorbed) for a layout spec.

    port a = |1 + sqrt(1-e) e^{i phi}|^2 / 4 and port b = |1 - sqrt(1-e)
    e^{i phi}|^2 / 4 with phi = |p| (lower path - upper path); the
    absorber takes e / 2. The modulus is the same whichever input arm
    holds the absorber.
    """
    lengths = spec["lengths"]
    phi = spec["p"] * (lengths["lower"] + lengths["lower_exit"] + extra_lower
                       - lengths["upper"] - lengths["upper_exit"])
    e = spec["efficiency"] if spec["bomb"] is not None else 0.0
    z = math.sqrt(1.0 - e) * cmath.exp(1j * phi)
    port = {"a": abs(1.0 + z) ** 2 / 4.0, "b": abs(1.0 - z) ** 2 / 4.0}
    d2_port = "b" if spec["d1_port"] == "a" else "a"
    return port[spec["d1_port"]], port[d2_port], e / 2.0


def check_report(spec: dict, p_d1: float, p_d2: float, p_absorbed: float) -> bool:
    """A detection report matches the closed form and its budget closes."""
    want = expected_ports(spec)
    got = (p_d1, p_d2, p_absorbed)
    return (all(abs(g - w) <= PROB_TOL for g, w in zip(got, want))
            and abs(sum(got) - 1.0) <= PROB_TOL)


def check_fringe(spec: dict, rows, lo: float, hi: float, steps: int) -> bool:
    """Fringe rows trace p_d1 = cos^2(phi/2) on port a (sin^2 on port b).

    For a balanced square with D1 on port a this is cos^2(|p| delta/2).
    """
    if len(rows) != steps:
        return False
    for i, (delta, p_d1, p_d2) in enumerate(rows):
        want_delta = lo + (hi - lo) * i / (steps - 1)
        want_d1, want_d2, _ = expected_ports(spec, extra_lower=want_delta)
        if not (abs(delta - want_delta) <= 1e-12 * max(1.0, abs(hi))
                and abs(p_d1 - want_d1) <= PROB_TOL
                and abs(p_d2 - want_d2) <= PROB_TOL):
            return False
    return True


def soft_request(rng: random.Random) -> dict:
    """Draw a single-kick soft-photon request: beta, window and solid angle."""
    e_minus = 10.0 ** rng.uniform(-6.0, -2.0)
    return {
        "beta": rng.uniform(0.05, 0.95),
        "e_minus": e_minus,
        "e_plus": e_minus * 10.0 ** rng.uniform(1.0, 6.0),
        "solid_angle": rng.uniform(0.01, 1.0),
    }


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_soft(request: dict, payload: dict) -> bool:
    """`ifmsim soft` output matches (2/(2 pi)^2)(atanh(beta)/beta - 1) and its window."""
    beta = request["beta"]
    factor = (2.0 / (2.0 * math.pi) ** 2) * (math.atanh(beta) / beta - 1.0)
    mu_e2 = factor * math.log(request["e_plus"] / request["e_minus"])
    pollution = -math.expm1(-mu_e2 * E_SQUARED_HL * request["solid_angle"])
    return (_close(payload["weinberg_a_e2"], factor, SOFT_RTOL)
            and _close(payload["mu_e2"], mu_e2, SOFT_RTOL)
            and _close(payload["pollution"], pollution, 1e-9))


def check_diagnostic(exit_code: int, stderr: str) -> bool:
    """A malformed layout exits 1 with a line:column positioned error."""
    return exit_code == 1 and _DIAG_RE.search(stderr) is not None


def check_tallies(probs, counts, n: int) -> bool:
    """Tallies sum to n and each lies within SHOT_SIGMAS sigma of n p."""
    if sum(counts) != n:
        return False
    for p, c in zip(probs, counts):
        sigma = math.sqrt(n * p * (1.0 - p))
        if abs(c - n * p) > SHOT_SIGMAS * sigma + 1e-9:
            return False
    return True


def check_verify_lines(ok: bool, text: str) -> bool:
    """Every `verify` line passes and the summary counts them all."""
    lines = text.strip().splitlines()
    if not ok or len(lines) < 2:
        return False
    checks, summary = lines[:-1], lines[-1]
    return (all(line.startswith("[PASS] ") for line in checks)
            and summary == f"{len(checks)}/{len(checks)} checks passed")
