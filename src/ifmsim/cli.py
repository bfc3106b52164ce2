"""Command-line front end.

Subcommands: simulate, shots, soft, fringe, verify. Layout arguments
accept a file path or the name of a bundled layout (mzi.ifm,
mzi_bomb.ifm). Exit codes: 0 success, 1 validation or parse failure,
2 reserved for tolerance failures in `verify`. All floats in emitted
JSON and CSV carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .data import data_path
from .dsl import _fmt, parse_layout
from .interferometer import (
    ShotCounts,
    fringe_scan,
    propagate_analytic,
    run_shots,
    shot_batches,
    square_layout,
    with_obstruction,
)
from .softphotons import (
    E_SQUARED_HEAVISIDE_LORENTZ,
    PollutionConfig,
    ProcessLeg,
    SoftWindow,
    corrected_probabilities,
    mean_photons,
    pollution_probability,
    weinberg_factor_fermion,
    weinberg_factor_general,
)
from .verify import run_checks, run_verification


def _json_dumps(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_json_dumps(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _load_layout(spec: str):
    """Read and parse a layout file; returns None after printing diagnostics."""
    path = spec
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        bundled = data_path(spec)
        if bundled.is_file():
            text = bundled.read_text(encoding="utf-8")
        else:
            print(f"error: no such layout file: {spec}", file=sys.stderr)
            return None
    document = parse_layout(text)
    for diag in document.diagnostics:
        print(f"{spec}:{diag}", file=sys.stderr)
    return document.layout


def _cmd_simulate(args) -> int:
    layout = _load_layout(args.layout)
    if layout is None:
        return 1
    report = propagate_analytic(layout, locality_tolerance=args.locality_tolerance)
    payload = {
        "p_d1": report.p_d1,
        "p_d2": report.p_d2,
        "p_absorbed": report.p_absorbed,
        "momentum_d1": list(report.momentum_d1),
        "momentum_d2": list(report.momentum_d2),
        "amplitude_d1_re": report.amplitude_d1.real,
        "amplitude_d1_im": report.amplitude_d1.imag,
    }
    _emit(_json_dumps(payload) + "\n", args.output)
    return 0


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("IFM_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"IFM_SEED must be an integer, got {raw!r}") from None


def _cmd_shots(args) -> int:
    layout = _load_layout(args.layout)
    if layout is None:
        return 1
    seed = _resolve_seed(args)
    if args.batch_csv is None:
        counts = run_shots(layout, args.n, seed)
    else:
        # the batches cover every shot once, so their sums are the run_shots totals
        rows = shot_batches(layout, args.n, seed, args.batch_size)
        counts = ShotCounts(*(sum(getattr(c, k) for _, c in rows)
                              for k in ("d1", "d2", "absorbed")))
    payload = {
        "n_shots": args.n,
        "seed": seed,
        "counts": {"d1": counts.d1, "d2": counts.d2, "absorbed": counts.absorbed},
    }
    _emit(_json_dumps(payload) + "\n", args.output)
    if args.batch_csv is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["start", "shots", "d1", "d2", "absorbed"])
        for start, batch in rows:
            writer.writerow([start, batch.total, batch.d1, batch.d2, batch.absorbed])
        _emit(buffer.getvalue(), args.batch_csv)
    return 0


def _load_legs(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "legs" not in payload or "pairwise_beta" not in payload:
        raise ValueError(
            f"legs file {path} must hold keys 'legs' and 'pairwise_beta'"
        )
    if not isinstance(payload["legs"], list):
        raise ValueError(f"legs file {path}: 'legs' must be a list of objects")
    for index, leg in enumerate(payload["legs"]):
        if not isinstance(leg, dict):
            raise ValueError(f"legs file {path}: leg {index} must be an object")
        for key in ("charge", "eta", "velocity"):
            if key not in leg:
                raise ValueError(f"legs file {path}: leg {index} has no {key!r}")
    legs = [ProcessLeg(charge=leg["charge"], eta=leg["eta"], velocity=leg["velocity"])
            for leg in payload["legs"]]
    return legs, payload["pairwise_beta"]


def _cmd_soft(args) -> int:
    e_squared = args.e_squared
    if not (math.isfinite(e_squared) and e_squared >= 0.0):
        raise ValueError(f"--e-squared must be finite and nonnegative, got {e_squared}")
    window = SoftWindow(args.e_minus, args.e_plus)
    config = PollutionConfig(args.solid_angle)
    if args.legs is not None:
        legs, pairwise = _load_legs(args.legs)
        factor_e2 = weinberg_factor_general(legs, pairwise)
    else:
        factor_e2 = weinberg_factor_fermion(args.beta)
    mu_e2 = mean_photons(factor_e2, window)
    mu = mu_e2 * e_squared
    pollution = pollution_probability(mu, config)

    # canonical fully absorbing obstruction: (1/2 absorbed, 1/4, 1/4)
    baseline = propagate_analytic(with_obstruction(square_layout(), "lower"))
    corrected = corrected_probabilities(baseline, pollution)

    reference_beta = 0.9999
    reference = weinberg_factor_fermion(reference_beta)
    payload = {
        "weinberg_a_e2": factor_e2,
        "e_squared": e_squared,
        "window": {"e_minus": window.e_minus, "e_plus": window.e_plus},
        "solid_angle_fraction": config.solid_angle_fraction,
        "mu_e2": mu_e2,
        "mu": mu,
        "pollution": pollution,
        "baseline": {
            "p_d1": baseline.p_d1,
            "p_d2": baseline.p_d2,
            "p_absorbed": baseline.p_absorbed,
        },
        "corrected": {
            "p_d1": corrected.p_d1,
            "p_d2": corrected.p_d2,
            "p_absorbed": corrected.p_absorbed,
            "p_joint": corrected.p_joint,
        },
        "high_velocity_reference": {
            "beta": reference_beta,
            "factor_e2": reference,
            "factor_e2_without_angular_denominator": reference * (2.0 * math.pi) ** 2,
            "note": (
                "the emission factor as implemented gives about 0.20 e^2 at "
                "beta = 0.9999; dropping the (2 pi)^2 angular denominator "
                "gives about 7.9 e^2, the reading under which the factor "
                "approaches 10 e^2. Both values are reported; neither is "
                "privileged here."
            ),
        },
    }
    _emit(_json_dumps(payload) + "\n", args.output)
    return 0


def _cmd_fringe(args) -> int:
    layout = _load_layout(args.layout)
    if layout is None:
        return 1
    rows = fringe_scan(layout, (args.min, args.max), args.steps)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["delta_l", "p_d1", "p_d2"])
    for delta_l, p_d1, p_d2 in rows:
        writer.writerow([_fmt(delta_l), _fmt(p_d1), _fmt(p_d2)])
    _emit(buffer.getvalue(), args.output)
    return 0


def _cmd_verify(args) -> int:
    if not args.json:
        return 0 if run_verification(sys.stdout) else 2
    results = run_checks()
    for r in results:
        print(json.dumps({**asdict(r), "margin": r.tolerance - r.residual, "passed": r.passed}))
    return 0 if all(r.passed for r in results) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifmsim",
        description="Interaction-free measurement simulator on a square "
                    "two-path interferometer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="propagate a layout, print the detection report")
    sim.add_argument("layout", help="layout file path or bundled name")
    sim.add_argument("--locality-tolerance", type=float, default=1e-6)
    sim.add_argument("--output", help="write JSON here instead of stdout")
    sim.set_defaults(handler=_cmd_simulate)

    shots = sub.add_parser("shots", help="Monte Carlo detector tallies")
    shots.add_argument("layout")
    shots.add_argument("--n", type=int, required=True, help="number of shots")
    shots.add_argument("--seed", type=int, default=None,
                       help="64-bit seed (default: IFM_SEED env var, else 0)")
    shots.add_argument("--batch-size", type=int, default=65536)
    shots.add_argument("--batch-csv", help="also write per-batch tallies to this CSV")
    shots.add_argument("--output")
    shots.set_defaults(handler=_cmd_shots)

    soft = sub.add_parser("soft", help="soft-photon emission and pollution report")
    process = soft.add_mutually_exclusive_group(required=True)
    process.add_argument("--beta", type=float,
                         help="final speed of a single charge kicked from rest")
    process.add_argument("--legs",
                         help="JSON file with keys 'legs' and 'pairwise_beta'")
    soft.add_argument("--e-minus", type=float, required=True,
                      help="lower detection threshold")
    soft.add_argument("--e-plus", type=float, required=True,
                      help="upper edge of the emission window")
    soft.add_argument("--solid-angle", type=float, required=True,
                      help="detector solid-angle fraction")
    soft.add_argument("--e-squared", type=float, default=E_SQUARED_HEAVISIDE_LORENTZ,
                      help="numeric value of e^2 (default: Heaviside-Lorentz)")
    soft.add_argument("--output")
    soft.set_defaults(handler=_cmd_soft)

    fringe = sub.add_parser("fringe", help="sweep an arm-length mismatch, print CSV")
    fringe.add_argument("layout")
    fringe.add_argument("--min", type=float, required=True)
    fringe.add_argument("--max", type=float, required=True)
    fringe.add_argument("--steps", type=int, required=True)
    fringe.add_argument("--output")
    fringe.set_defaults(handler=_cmd_fringe)

    verify = sub.add_parser("verify", help="run the operator-identity residual suite")
    verify.add_argument("--json", action="store_true",
                        help="one JSON object per check instead of the text report")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def run_cli(argv=None) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
