"""Spans around the benchmark's calls into each ifmsim module.

The traced run replaces public functions on the ifmsim modules with
wrappers for its duration, so calls made through a module's globals
(`run_shots` calling `shot_batches`, `verify` calling `fock.v_unitary`)
nest as child spans. The program's files are not changed. Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}

# The workload whose own spans define each span-derived metric. A traced
# run of another workload that does not reach the layer takes the metric
# from a short run of this workload, so a metric means the same work on
# every workload.
HOME = {
    "cli.command_s": "cli_cold",
    "softphotons.soft_us": "cli_cold",
    "dsl.parse_us": "analytic",
    "dsl.parse_error_us": "analytic",
    "dsl.serialize_us": "analytic",
    "dsl.parse_calls": "analytic",
    "interferometer.layout_build_us": "analytic",
    "interferometer.propagate_us": "analytic",
    "interferometer.propagate_calls": "analytic",
    "interferometer.fringe_step_us": "analytic",
    "optics.call_us": "analytic",
    "interferometer.shot_ns": "shots",
    "interferometer.batch_us": "shots",
    "fock.build_space_ms": "oracle",
    "fock.ladder_ms": "oracle",
    "fock.v_unitary_ms": "oracle",
    "fock.v_unitary_dim": "oracle",
    "fock.v_unitary_calls": "oracle",
    "fock.rotation_check_s": "oracle",
    "verify.fock_checks_s": "oracle",
    "verify.optics_checks_s": "oracle",
}


def _targets(modules):
    """span name -> (places to wrap, function giving span attributes)."""
    cli, dsl, fock, ifm, verify = modules
    optics = ("port_matrix", "reflect_mode", "locality_check", "packet_overlap")
    soft = ("weinberg_factor_fermion", "weinberg_factor_general", "mean_photons",
            "pollution_probability", "corrected_probabilities")
    return {
        "cli.command": ([(cli, "run_cli")], lambda a, r: {"subcommand": a[0][0]}),
        "dsl.parse": ([(dsl, "parse_layout"), (cli, "parse_layout")],
                      lambda a, r: {"ok": r.layout is not None}),
        "dsl.serialize": ([(dsl, "serialize_layout")], None),
        "interferometer.layout_build": ([(dsl, "Layout")], None),
        "interferometer.propagate": ([(ifm, "propagate_analytic"),
                                      (cli, "propagate_analytic")], None),
        "interferometer.fringe_scan": ([(ifm, "fringe_scan"), (cli, "fringe_scan")],
                                       lambda a, r: {"steps": len(r)}),
        "interferometer.run_shots": ([(ifm, "run_shots"), (cli, "run_shots")],
                                     lambda a, r: {"shots": r.total}),
        "interferometer.shot_batches": ([(ifm, "shot_batches"), (cli, "shot_batches")],
                                        lambda a, r: {"batches": len(r)}),
        "optics.call": ([(ifm, n) for n in optics] + [(dsl, "householder")]
                        + [(verify, n) for n in ("householder", "packet_overlap",
                                                 "two_port_rotation")], None),
        "fock.build_space": ([(fock, "build_space")], None),
        "fock.ladder": ([(fock, "ladder")], None),
        "fock.v_unitary": ([(fock, "v_unitary")], lambda a, r: {"dim": len(r)}),
        "fock.rotation_check": ([(fock, "rotation_check")], lambda a, r: {"dim": a[0].dim}),
        "fock.commutator_check": ([(fock, "commutator_preservation_check")], None),
        "verify.run": ([(verify, "run_verification"), (cli, "run_verification")], None),
        "verify.fock_checks": ([(verify, "fock_checks")], None),
        "verify.optics_checks": ([(verify, "optics_checks")], None),
        "softphotons.soft": ([(cli, n) for n in soft], None),
    }


class Tracer:
    """Records spans (name, request, parent, start_ns, end_ns, attrs) while active.

    Start and end are read from the process CPU clock, as are the
    benchmark's operation times.

    `active` is set only around a timed operation, so checks and input
    generation between operations leave no spans. Each timed operation
    is one request; its spans share the request number.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.request = 0
        self._saved = []

    def install(self, modules):
        for name, (places, attrs) in _targets(modules).items():
            for module, attr in places:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, attrs))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if not tracer.stack:
                tracer.request += 1
            span = [name, tracer.request, tracer.stack[-1] if tracer.stack else -1,
                    time.process_time_ns(), 0, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = {"error": True}
                raise
            finally:
                span[4] = time.process_time_ns()
                tracer.stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result
        return traced


def span_table(spans):
    """Per span name: calls, total, self time and median per call, in seconds."""
    child = defaultdict(int)
    for name, _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    rows = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "each": []})
    for i, (name, _, _, start, end, _) in enumerate(spans):
        row = rows[name]
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - child[i]) * 1e-9
        row["each"].append((end - start) * 1e-9)
    return {name: {"calls": r["calls"], "total_s": r["total_s"], "self_s": r["self_s"],
                   "median_s": statistics.median(r["each"])}
            for name, r in sorted(rows.items())}


def layer_metrics(spans, units):
    """Per-layer metrics that these spans support, in the given units."""
    by_name = defaultdict(list)
    for span in spans:
        if not (span[5] or {}).get("error"):
            by_name[span[0]].append(span)

    def durations(name, keep=lambda s: True, per=None):
        return [(s[4] - s[3]) * 1e-9 / (per(s) if per else 1)
                for s in by_name[name] if keep(s)]

    dims = [s[5]["dim"] for s in by_name["fock.v_unitary"]]
    top_dim = max(dims) if dims else None
    series = {
        "cli.command_s": durations("cli.command"),
        "dsl.parse_us": durations("dsl.parse", lambda s: s[5]["ok"]),
        "dsl.parse_error_us": durations("dsl.parse", lambda s: not s[5]["ok"]),
        "dsl.serialize_us": durations("dsl.serialize"),
        "interferometer.layout_build_us": durations("interferometer.layout_build"),
        "interferometer.propagate_us": durations("interferometer.propagate"),
        "interferometer.fringe_step_us": durations("interferometer.fringe_scan",
                                                   per=lambda s: s[5]["steps"]),
        "interferometer.shot_ns": durations("interferometer.run_shots",
                                            per=lambda s: s[5]["shots"]),
        # batches that run_shots makes internally are its own chunks, not batches
        "interferometer.batch_us": durations(
            "interferometer.shot_batches",
            lambda s: s[2] < 0 or spans[s[2]][0] != "interferometer.run_shots",
            per=lambda s: s[5]["batches"]),
        "optics.call_us": durations("optics.call"),
        "fock.build_space_ms": durations("fock.build_space"),
        "fock.ladder_ms": durations("fock.ladder"),
        # medians at the largest dimension reached, where expm dominates
        "fock.v_unitary_ms": durations("fock.v_unitary", lambda s: s[5]["dim"] == top_dim),
        "fock.rotation_check_s": durations("fock.rotation_check",
                                           lambda s: s[5]["dim"] == top_dim),
        "verify.fock_checks_s": durations("verify.fock_checks"),
        "verify.optics_checks_s": durations("verify.optics_checks"),
        "softphotons.soft_us": durations("softphotons.soft"),
    }
    out = {name: statistics.median(values) * _SCALE[units[name]]
           for name, values in series.items() if values}
    counts = {"dsl.parse_calls": "dsl.parse", "interferometer.propagate_calls":
              "interferometer.propagate", "fock.v_unitary_calls": "fock.v_unitary"}
    for metric, name in counts.items():
        if by_name[name]:
            out[metric] = len(by_name[name])
    if top_dim is not None:
        out["fock.v_unitary_dim"] = top_dim
    return out


def write_trace(path, spans, table, metrics, sources):
    payload = {
        "span_fields": ["name", "request", "parent", "start_ns", "end_ns", "attrs"],
        "spans": spans,
        "table": table,
        "metrics": metrics,
        "source": sources,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
