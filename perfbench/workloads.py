"""The four benchmark workloads.

Each workload has two parts, "a" and "b". `prepare` is the set-up that
`setup_s` times; `step(part)` makes one operation of a part and returns
its CPU time and whether its output was correct. Inputs are drawn from
`random.Random(seed)` only. Program calls go through module attributes
(`interferometer.run_shots`, not an imported name) so that the traced
run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import inputs

FRINGE_STEPS = 1000
BULK_SHOTS = 10_000_000
BATCH_SHOTS = 1 << 17
BATCH_SIZE = 16
# Two-mode truncations of dim 441, 625 and 841: one dense complex matrix
# is 3.1, 6.3 and 11.3 MB, past a 2 MiB per-core L2 and inside the L3.
LARGE_N_MAX = (20, 24, 28)
# Narrow angle range: expm's scaling-and-squaring count grows with the
# angle, so a wide range would make the timing depend on the seed.
LARGE_ALPHA = (0.5, 1.0)


class _Idle:
    """Stand-in tracer for untraced runs."""

    active = False


class Workload:
    name = ""
    # share of measured time each part gets
    shares = {"a": 0.5, "b": 0.5}

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = random.Random(seed)
        self.tracer = _Idle()

    def prepare(self, work_dir: Path) -> None:
        raise NotImplementedError

    def step(self, part: str) -> tuple[float, bool]:
        raise NotImplementedError

    def finish(self) -> bool:
        """Checks made once after the timed loop; untimed."""
        return True

    def close(self) -> None:
        pass

    def named(self, a_p50: float, a_tail: float, b_p50: float) -> dict:
        """The workload's figures among NAMED in run.py, by name."""
        raise NotImplementedError

    def _timed(self, fn, *args):
        self.tracer.active = True
        t0 = time.process_time()
        try:
            result = fn(*args)
        finally:
            elapsed = time.process_time() - t0
            self.tracer.active = False
        return result, elapsed


def run_child(args, **kwargs):
    """`subprocess.run`, and the CPU seconds (user and system) the child used."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(args, **kwargs)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _import_program():
    from ifmsim import cli, dsl, fock, interferometer, verify
    return cli, dsl, fock, interferometer, verify


class CliCold(Workload):
    """Each request is a fresh `python -m ifmsim.cli` process.

    Part a: valid requests, four `simulate` runs to one `soft` run.
    Part b: malformed layouts, which must exit 1 with a positioned error.
    """

    name = "cli_cold"
    shares = {"a": 3 / 4, "b": 1 / 4}
    BLOCKS = 12

    def __init__(self, root, seed, in_process=False):
        super().__init__(root, seed)
        self.in_process = in_process

    def prepare(self, work_dir):
        self._tmp = tempfile.TemporaryDirectory(dir=work_dir, prefix="cli-")
        tmp = Path(self._tmp.name)
        self.valid = []
        for _ in range(self.BLOCKS):
            block = ["simulate"] * 4 + ["soft"]
            self.rng.shuffle(block)
            for kind in block:
                if kind == "soft":
                    self.valid.append(("soft", inputs.soft_request(self.rng)))
                else:
                    spec = inputs.layout_spec(self.rng)
                    path = tmp / f"layout-{len(self.valid)}.ifm"
                    path.write_text(inputs.layout_text(spec, self.rng), encoding="utf-8")
                    self.valid.append(("simulate", (spec, str(path))))
        self.malformed = []
        for i in range(self.BLOCKS):
            path = tmp / f"malformed-{i}.ifm"
            path.write_text(inputs.malformed_text(self.rng), encoding="utf-8")
            self.malformed.append(str(path))
        self.next_valid = itertools.cycle(self.valid)
        self.next_malformed = itertools.cycle(self.malformed)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        if self.in_process:
            self.cli = _import_program()[0]

    def close(self):
        self._tmp.cleanup()

    def _request(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, elapsed = self._timed(self.cli.run_cli, argv)
            return code, out.getvalue(), err.getvalue(), elapsed
        proc, elapsed = run_child([sys.executable, "-m", "ifmsim.cli", *argv],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.root)
        return proc.returncode, proc.stdout, proc.stderr, elapsed

    def step(self, part):
        if part == "b":
            code, _, err, elapsed = self._request(["simulate", next(self.next_malformed)])
            return elapsed, inputs.check_diagnostic(code, err)
        kind, arg = next(self.next_valid)
        if kind == "soft":
            argv = ["soft", "--beta", repr(arg["beta"]), "--e-minus", repr(arg["e_minus"]),
                    "--e-plus", repr(arg["e_plus"]),
                    "--solid-angle", repr(arg["solid_angle"])]
        else:
            argv = ["simulate", arg[1]]
        code, out, _, elapsed = self._request(argv)
        if code != 0:
            return elapsed, False
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return elapsed, False
        if kind == "soft":
            return elapsed, inputs.check_soft(arg, payload)
        return elapsed, inputs.check_report(arg[0], payload["p_d1"], payload["p_d2"],
                                            payload["p_absorbed"])

    def named(self, a_p50, a_tail, b_p50):
        return {"latency_p50_s": a_p50, "latency_tail_s": a_tail}


class Analytic(Workload):
    """Part a: 1000-step fringe scans, one layout and many mismatches.

    Part b: parse, build, propagate and serialize one distinct layout;
    one in ten is malformed and must come back with positioned errors.
    """

    name = "analytic"
    # part b spends as long again on its checks as on its operations
    shares = {"a": 2 / 3, "b": 1 / 3}
    FRINGE_LAYOUTS = 8

    def prepare(self, work_dir):
        _, self.dsl, _, self.ifm, _ = _import_program()
        self.fringe = []
        for _ in range(self.FRINGE_LAYOUTS):
            spec = inputs.layout_spec(self.rng, obstruction="none")
            layout = self.dsl.parse_layout(inputs.layout_text(spec, self.rng)).layout
            self.fringe.append((spec, layout))
        self.next_fringe = itertools.cycle(self.fringe)
        self.b_count = itertools.count()

    def step(self, part):
        if part == "a":
            spec, layout = next(self.next_fringe)
            hi = self.rng.uniform(1.0, 4.0) * 2.0 * 3.141592653589793 / spec["p"]
            rows, elapsed = self._timed(self.ifm.fringe_scan, layout, (0.0, hi),
                                        FRINGE_STEPS)
            return elapsed, inputs.check_fringe(spec, rows.tolist(), 0.0, hi, FRINGE_STEPS)
        if next(self.b_count) % 10 == 9:
            text = inputs.malformed_text(self.rng)
            doc, elapsed = self._timed(self.dsl.parse_layout, text)
            ok = doc.layout is None and bool(doc.errors) and all(
                d.line >= 1 and d.column >= 1 for d in doc.errors)
            return elapsed, ok
        spec = inputs.layout_spec(self.rng)
        text = inputs.layout_text(spec, self.rng)
        (doc, report, canonical), elapsed = self._timed(self._validate, text)
        if report is None:
            return elapsed, False
        again = self.dsl.parse_layout(canonical).layout
        ok = (inputs.check_report(spec, report.p_d1, report.p_d2, report.p_absorbed)
              and again == doc.layout)
        return elapsed, ok

    def _validate(self, text):
        doc = self.dsl.parse_layout(text)
        if doc.layout is None:
            return doc, None, None
        report = self.ifm.propagate_analytic(doc.layout)
        return doc, report, self.dsl.serialize_layout(doc.layout)

    def named(self, a_p50, a_tail, b_p50):
        return {"fringe_steps_per_s": FRINGE_STEPS / a_p50, "layouts_per_s": 1.0 / b_p50}


class Shots(Workload):
    """Part a: `run_shots` at 1e7 shots. Part b: `shot_batches` at batch size 16."""

    name = "shots"
    LAYOUTS = 6

    def prepare(self, work_dir):
        _, dsl, _, self.ifm, _ = _import_program()
        self.layouts = []
        for _ in range(self.LAYOUTS):
            spec = inputs.layout_spec(self.rng, obstruction="always")
            layout = dsl.parse_layout(inputs.layout_text(spec, self.rng)).layout
            self.layouts.append((inputs.expected_ports(spec), layout))
        self.next_layout = itertools.cycle(self.layouts)
        self.first_bulk = None

    def step(self, part):
        probs, layout = next(self.next_layout)
        seed = self.rng.getrandbits(63)
        if part == "a":
            counts, elapsed = self._timed(self.ifm.run_shots, layout, BULK_SHOTS, seed)
            tallies = (counts.d1, counts.d2, counts.absorbed)
            if self.first_bulk is None:
                self.first_bulk = (layout, seed, tallies)
            return elapsed, inputs.check_tallies(probs, tallies, BULK_SHOTS)
        rows, elapsed = self._timed(self.ifm.shot_batches, layout, BATCH_SHOTS, seed,
                                    BATCH_SIZE)
        starts = [start for start, _ in rows]
        summed = tuple(sum(getattr(c, k) for _, c in rows) for k in ("d1", "d2", "absorbed"))
        whole = self.ifm.run_shots(layout, BATCH_SHOTS, seed)
        ok = (starts == list(range(0, BATCH_SHOTS, BATCH_SIZE))
              and summed == (whole.d1, whole.d2, whole.absorbed)
              and inputs.check_tallies(probs, summed, BATCH_SHOTS))
        return elapsed, ok

    def finish(self):
        if self.first_bulk is None:
            return True
        layout, seed, tallies = self.first_bulk
        again = self.ifm.run_shots(layout, BULK_SHOTS, seed)
        return (again.d1, again.d2, again.absorbed) == tallies

    def named(self, a_p50, a_tail, b_p50):
        return {"bulk_shots_per_s": BULK_SHOTS / a_p50,
                "batched_shots_per_s": BATCH_SHOTS / b_p50}


class Oracle(Workload):
    """Part a: the full `verify` suite (n_max 6).

    Part b: build a two-mode space and take the restricted ladder
    conjugation residual at each n_max in LARGE_N_MAX, at seeded angles.
    """

    name = "oracle"

    def prepare(self, work_dir):
        _, _, self.fock, _, self.verify = _import_program()

    def step(self, part):
        if part == "a":
            buffer = io.StringIO()
            ok, elapsed = self._timed(self.verify.run_verification, buffer)
            return elapsed, inputs.check_verify_lines(ok, buffer.getvalue())
        angles = [self.rng.uniform(*LARGE_ALPHA) for _ in LARGE_N_MAX]
        residuals, elapsed = self._timed(self._sweep, angles)
        return elapsed, all(r <= inputs.LARGE_SPACE_TOL for r in residuals)

    def _sweep(self, angles):
        residuals = []
        # a fixed order of sizes keeps the allocator's peak the same every run
        for n_max, alpha in zip(LARGE_N_MAX, angles):
            space = self.fock.build_space(("p", "q"), n_max)
            residuals.append(self.fock.rotation_check(space, ("p", "q"), alpha))
        return residuals

    def named(self, a_p50, a_tail, b_p50):
        return {"verify_s": a_p50, "large_space_s": b_p50}


WORKLOADS = {cls.name: cls for cls in (CliCold, Analytic, Shots, Oracle)}


def run_loop(workload: Workload, seconds: float):
    """Closed loop, one client: the next operation starts when one ends.

    Runs for `seconds` of wall time. Each operation goes to the part
    furthest below its share of measured time, and every part gets at
    least one operation. Returns the per-part CPU times and the
    attempted/failed counts.
    """
    samples = {part: [] for part in workload.shares}
    spent = dict.fromkeys(workload.shares, 0.0)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not all(samples.values()):
        part = min(workload.shares, key=lambda p: spent[p] / workload.shares[p])
        t0 = time.process_time()
        try:
            elapsed, ok = workload.step(part)
        except Exception:  # the program raising on one input is one failed operation
            traceback.print_exc(file=sys.stderr)
            elapsed, ok = time.process_time() - t0, False
        spent[part] += elapsed
        samples[part].append(elapsed)
        attempted += 1
        failed += not ok
    return samples, attempted, failed
