"""Proof that the benchmark's checks count corrupted program output as failed.

For each workload part, run a few operations with the program as it is
(every one must pass), then again with one program function replaced by
a wrapper that corrupts its result slightly (at least one must fail).
The program's files are not changed.
"""

from __future__ import annotations

import dataclasses
import io

import workloads


def _nudged_report(fn):
    def corrupt(*args, **kwargs):
        report = fn(*args, **kwargs)
        return dataclasses.replace(report, p_d1=report.p_d1 + 1e-9)
    return corrupt


def _nudged_rows(fn):
    def corrupt(*args, **kwargs):
        rows = fn(*args, **kwargs).copy()
        rows[len(rows) // 2, 1] += 1e-9
        return rows
    return corrupt


def _extra_shot(fn):
    def corrupt(*args, **kwargs):
        counts = fn(*args, **kwargs)
        return dataclasses.replace(counts, d1=counts.d1 + 1)
    return corrupt


def _lost_batch(fn):
    def corrupt(*args, **kwargs):
        return fn(*args, **kwargs)[:-1]
    return corrupt


def _failed_line(fn):
    def corrupt(stream=None):
        buffer = io.StringIO()
        ok = fn(buffer)
        stream.write(buffer.getvalue().replace("[PASS]", "[FAIL]", 1))
        return ok
    return corrupt


def _loose_residual(fn):
    def corrupt(*args, **kwargs):
        return fn(*args, **kwargs) + 1e-8
    return corrupt


def _silent_parse(fn):
    def corrupt(text):
        doc = fn(text)
        doc.diagnostics = []
        return doc
    return corrupt


# (workload, part, module index in _import_program(), attribute, corruption, operations)
CASES = (
    ("cli_cold", "a", 0, "propagate_analytic", _nudged_report, 3),
    ("cli_cold", "b", 0, "parse_layout", _silent_parse, 2),
    ("analytic", "a", 3, "fringe_scan", _nudged_rows, 2),
    ("analytic", "b", 3, "propagate_analytic", _nudged_report, 3),
    ("shots", "a", 3, "run_shots", _extra_shot, 2),
    ("shots", "b", 3, "shot_batches", _lost_batch, 2),
    ("oracle", "a", 4, "run_verification", _failed_line, 2),
    ("oracle", "b", 2, "rotation_check", _loose_residual, 1),
)


def main(root, work_dir) -> int:
    modules = workloads._import_program()
    bad = 0
    for name, part, index, attr, corruption, ops in CASES:
        if name == "cli_cold":
            workload = workloads.CliCold(root, 1, in_process=True)
        else:
            workload = workloads.WORKLOADS[name](root, 1)
        workload.prepare(work_dir)
        module = modules[index]
        original = getattr(module, attr)
        try:
            clean = [workload.step(part)[1] for _ in range(ops)]
            setattr(module, attr, corruption(original))
            corrupted = [workload.step(part)[1] for _ in range(ops)]
        finally:
            setattr(module, attr, original)
            workload.close()
        caught = all(clean) and not all(corrupted)
        bad += not caught
        print(f"{'ok' if caught else 'MISSED'}: {name} part {part}, "
              f"{module.__name__}.{attr} corrupted: clean {sum(clean)}/{ops} passed, "
              f"corrupted {ops - sum(corrupted)}/{ops} failed")
    print(f"self-test: {len(CASES) - bad}/{len(CASES)} corruptions caught")
    return 1 if bad else 0
