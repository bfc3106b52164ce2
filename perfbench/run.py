"""ifmsim benchmark: one workload per run, or every workload with --summary.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --summary --seeds 1 2 --seconds 20
    python3 perfbench/run.py --self-test

Run from anywhere; the program is imported from `src/` beside this
directory, never from an installed copy. The last line of a workload
run is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). Lines before it carry the environment and the figures under
the names of the benchmark's README. Exit code 0 when every output was
correct, 1 when one was not, 2 when the program is missing.
"""

from __future__ import annotations

import os

# One process, one client, no worker pool, one BLAS thread. Set before
# numpy is imported here or in any child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import compileall  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# setup_s is the median over at least this many fresh processes, and
# over as many more as fit in SETUP_MIN_S of their CPU time (cli_cold's
# set-up is short, so a median of five would be noisy)
SETUP_REPS = 5
SETUP_MIN_S = 2.0
PROBE_REPS = 3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
# The eleven named end-to-end figures, one column each in the summary table.
NAMED = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("fail_ratio", "1"),
    ("latency_p50_s", "s"), ("latency_tail_s", "s"),
    ("fringe_steps_per_s", "1/s"), ("layouts_per_s", "1/s"),
    ("bulk_shots_per_s", "1/s"), ("batched_shots_per_s", "1/s"),
    ("verify_s", "s"), ("large_space_s", "s"),
)


def tail(values):
    """Highest percentile with at least ten samples beyond it, not below p50.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def environment(seed):
    def cache(level):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        return None

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    try:
        l2, l3 = cache(2), cache(3)
    except OSError:
        l2 = l3 = None
    return {
        "python": platform.python_version(), **versions,
        "nproc": os.cpu_count(), "cpu_model": model, "l2": l2, "l3": l3,
        "blas_threads": int(BLAS_THREADS), "commit": commit, "seed": seed,
    }


def noise_mark():
    """Load average and /proc/stat CPU counters at one moment."""
    try:
        ticks = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except OSError:
        ticks = None
    return os.getloadavg(), ticks


def noise(mark):
    """What else the machine did since `mark`: load averages and the steal share.

    Steal is the time the hypervisor gave this machine's CPUs to others.
    """
    (load_before, ticks_before), (load_after, ticks_after) = mark, noise_mark()
    steal = None
    if ticks_before and ticks_after and len(ticks_after) > 7:
        delta = [a - b for a, b in zip(ticks_after, ticks_before)]
        steal = delta[7] / max(1, sum(delta))
    return {"load_avg_before": load_before, "load_avg_after": load_after,
            "steal_share": steal}


def setup_probe(name, seed):
    """CPU time of a fresh process that imports and makes the workload's inputs."""
    _, cpu = workloads.run_child([sys.executable, str(Path(__file__).resolve()),
                                  "--setup-only", "--workload", name, "--seed", str(seed)],
                                 check=True)
    return cpu


def program_probes():
    """Fresh-process floors: bare interpreter, `import ifmsim`, `import scipy.linalg`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def bare():
        return workloads.run_child([sys.executable, "-c", "pass"], check=True)[1]

    def imported(module):
        code = (f"import time; t = time.process_time(); import {module}; "
                "print(time.process_time() - t)")
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True).stdout
        return float(out)

    return {
        "cli.interpreter_s": statistics.median(bare() for _ in range(PROBE_REPS)),
        "import.ifmsim_s": statistics.median(imported("ifmsim") for _ in range(PROBE_REPS)),
        "import.scipy_linalg_s": statistics.median(
            imported("scipy.linalg") for _ in range(PROBE_REPS)),
    }


def import_program():
    sys.path.insert(0, str(SRC))
    import ifmsim
    if Path(ifmsim.__file__).resolve().parent != (SRC / "ifmsim").resolve():
        raise SystemExit(f"imported ifmsim from {ifmsim.__file__}, not from {SRC}")
    return workloads._import_program()


def run_untraced(name, seed, seconds):
    mark = noise_mark()
    workload = workloads.WORKLOADS[name](ROOT, seed)
    if name != "cli_cold":
        import_program()
    workload.prepare(WORK)
    try:
        samples, attempted, failed = workloads.run_loop(workload, seconds)
        attempted += 1
        failed += not workload.finish()
    finally:
        workload.close()
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        setups.append(setup_probe(name, seed))

    a_tail, tail_pct, tail_n = tail(samples["a"])
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_mb,
              "latency_p50_s": statistics.median(samples["a"]), "latency_tail_s": a_tail,
              "secondary_p50_s": statistics.median(samples["b"])}
    named = {"setup_s": values["setup_s"], "peak_rss_mb": peak_mb,
             "fail_ratio": failed / attempted}
    named.update(workload.named(values["latency_p50_s"], values["latency_tail_s"],
                                values["secondary_p50_s"]))
    detail = {
        "workload": name, "named": named,
        "tail_percentile": tail_pct, "tail_samples": tail_n,
        "setup_samples": len(setups),
        "samples": {part: len(v) for part, v in samples.items()},
        "noise": noise(mark),
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    return detail, attempted, failed, metrics


def traced_workload(name, seed):
    # spans cannot cross a process boundary, so cli_cold runs run_cli in process
    if name == "cli_cold":
        return workloads.CliCold(ROOT, seed, in_process=True)
    return workloads.WORKLOADS[name](ROOT, seed)


def run_traced(name, seed, seconds):
    """Untraced, then traced runs of the workload; then the layers it does not reach.

    The run's time is split in three: the workload untraced, the workload
    traced, and short traced runs of the workloads that own the per-layer
    metrics this workload does not reach (tracing.HOME).
    """
    mark = noise_mark()
    modules = import_program()
    probes = program_probes()
    workload = traced_workload(name, seed)
    workload.prepare(WORK)
    tracer = tracing.Tracer()
    try:
        plain, attempted, failed = workloads.run_loop(workload, seconds / 3)
        tracer.install(modules)
        workload.tracer = tracer
        traced, more, more_failed = workloads.run_loop(workload, seconds / 3)
        tracer.uninstall()
        attempted += more + 1
        failed += more_failed + (not workload.finish())
    finally:
        tracer.uninstall()
        workload.close()

    units = dict(PER_LAYER)
    values = dict(probes)
    sources = dict.fromkeys(probes, "probe")
    for metric, value in tracing.layer_metrics(tracer.spans, units).items():
        values[metric], sources[metric] = value, "workload"
    homes = sorted({tracing.HOME[m] for m, _ in PER_LAYER
                    if m not in values and m in tracing.HOME})
    for home in homes:
        other = traced_workload(home, seed)
        other.prepare(WORK)
        census = tracing.Tracer()
        try:
            census.install(modules)
            other.tracer = census
            _, more, more_failed = workloads.run_loop(other, seconds / 3 / len(homes))
            census.uninstall()
            attempted += more + 1
            failed += more_failed + (not other.finish())
        finally:
            census.uninstall()
            other.close()
        for metric, value in tracing.layer_metrics(census.spans, units).items():
            if metric not in values and tracing.HOME[metric] == home:
                values[metric], sources[metric] = value, f"census:{home}"
    values["trace.overhead_ratio"] = (sum(statistics.median(v) for v in traced.values())
                                      / sum(statistics.median(v) for v in plain.values()))
    sources["trace.overhead_ratio"] = "workload"
    missing = [m for m, _ in PER_LAYER if m not in values]
    if missing:
        raise SystemExit(f"traced run produced no value for {missing}")

    table = tracing.span_table(tracer.spans)
    trace_path = WORK / f"trace-{name}-{seed}.json"
    tracing.write_trace(trace_path, tracer.spans, table, values, sources)
    layers = {}
    for span, row in table.items():
        layer = span.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    detail = {
        "workload": name, "spans": table, "self_s_by_layer": layers, "source": sources,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "noise": noise(mark),
    }
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER}
    return detail, attempted, failed, metrics


def summary(names, seeds, seconds, trace, record):
    """Run each workload on each seed; print one row per workload.

    With trace 0 the row holds the named end-to-end figures (NAMED), with
    trace 1 the per-layer metrics; both list the spread over the seeds.
    """
    rows = {}
    env = None
    for name in names:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            info = {k: json.loads(v) for k, v in
                    (line.split(" ", 1) for line in lines[:-1] if " " in line)
                    if k in ("env", "detail")}
            env = env or info["env"]
            runs.append((result, info["detail"]))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        rows[name] = runs

    def stats(values):
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "values": values}

    metrics = PER_LAYER if trace else END_TO_END
    report = {"env": env, "seeds": seeds, "seconds": seconds, "trace": trace,
              "workloads": {}}
    for name, runs in rows.items():
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        entry = {"metrics": {m: stats([r["metrics"][m]["value"] for r, _ in runs])
                             for m, _ in metrics},
                 "attempted": attempted, "failed": failed}
        if trace:
            entry["source"] = runs[0][1]["source"]
        else:
            named = {m: statistics.median(d["named"][m] for _, d in runs)
                     for m, _ in NAMED if m in runs[0][1]["named"]}
            named["fail_ratio"] = failed / attempted
            entry["named"] = named
            entry["runs"] = {seed: {"noise": d["noise"]}
                             for seed, (_, d) in zip(seeds, runs)}
        report["workloads"][name] = entry

    if not trace:
        width = 24
        print("workload".ljust(10) + "".join(f"{m}[{u}]".rjust(width) for m, u in NAMED))
        for name, entry in report["workloads"].items():
            cells = [f"{entry['named'][m]:.6g}" if m in entry["named"] else "-"
                     for m, _ in NAMED]
            print(name.ljust(10) + "".join(c.rjust(width) for c in cells))
        print()
    print("median (spread = (q3-q1)/median) over seeds:")
    for name, entry in report["workloads"].items():
        print(name.ljust(10) + "  ".join(
            f"{m}={s['median']:.6g} ({s['spread']:.3f})" for m, s in entry["metrics"].items()))
    if record:
        Path(record).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if any(e["failed"] for e in report["workloads"].values()) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the workload's inputs and exit (times setup_s)")
    parser.add_argument("--summary", action="store_true",
                        help="run every workload (or --workload) on every --seeds value")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--record", help="with --summary: write the report here as JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="show that corrupted program output counts as failed")
    args = parser.parse_args(argv)

    if not (SRC / "ifmsim" / "__init__.py").is_file():
        print(f"error: no ifmsim sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.setup_only:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        if args.workload != "cli_cold":
            import_program()
        workload.prepare(WORK)
        workload.close()
        return 0
    # the build: byte-compile the sources once so no run pays for it
    compileall.compile_dir(str(SRC), quiet=2)
    if args.self_test:
        import selftest
        import_program()
        return selftest.main(ROOT, WORK)
    if args.summary:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        return summary(names, args.seeds, args.seconds, args.trace, args.record)
    if args.workload is None:
        parser.error("--workload is required")

    env = environment(args.seed)
    run = run_traced if args.trace else run_untraced
    detail, attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
