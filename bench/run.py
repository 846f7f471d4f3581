"""tatekit benchmark: one workload, seeded inputs, oracle-checked outputs.

    python3 bench/run.py --workload verify-suites --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload runs in a fresh Python process
(``worker.py``) with ``src`` on its path: one caller in a closed loop, no
threads and no pools.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` a second, traced process re-runs one
pass and the last line carries the per-layer metrics.  Lines before it give
details: the tail percentile and sample count, the failure ratio, every
failed op with its inputs, and a digest of all outputs.  Span dumps and
per-op output digests go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0
SETUP_SAMPLES = 9
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Set iteration order in tatekit depends on string hashes; pin it so the
    # traced counts repeat exactly run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline):
    """Run worker.py; returns (set-up seconds, raw set-up seconds, parsed
    result or None).  Set-up is scaled to the reference speed measured
    just before and after the worker starts."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    before = speed.probes()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker %s passed the %.0f s deadline" % (" ".join(args), DEADLINE_S))
    lines = out.splitlines()
    ready = lines[0].split() if lines else []
    if proc.returncode != 0 or len(ready) != 3 or ready[0] != "READY":
        raise BenchError("worker %s exited with %s" % (" ".join(args), proc.returncode))
    # Input generation is the benchmark's own work, not set-up a user pays.
    setup = float(ready[2]) - t0 - float(ready[1])
    scale = speed.NOMINAL_S / statistics.median(before + speed.probes())
    return setup * scale, setup, (json.loads(lines[-1]) if len(lines) > 1 else None)


def median_op_latencies(ops):
    return [statistics.median(op["lat"]) for op in ops]


def tail(lat):
    """The highest percentile with at least ten samples above it."""
    lat = sorted(lat)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def field_seconds(result, q):
    """Median over passes of the summed time of Q ops (q) or prime-field ops."""
    ops = [op for op in result["ops"] if (op["field"] == "Q") == q]
    if not ops:
        return 0.0
    return statistics.median(sum(p) for p in zip(*(op["lat"] for op in ops)))


def end_to_end(setups, result):
    lat = median_op_latencies(result["ops"])
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (statistics.median(result["walls"]), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "q_s": (field_seconds(result, True), "s"),
        "fp_s": (field_seconds(result, False), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw_walls = [sum(p) for p in zip(*(op["raw"] for op in result["ops"]))]
    detail = {
        "op_tail_percentile": pct,
        "op_samples": len(lat),
        "passes": len(result["walls"]),
        "raw_setup_s": statistics.median(r for _, r in setups),
        "raw_wall_s": statistics.median(raw_walls),
    }
    return metrics, detail


def k_exponent(result, q):
    """Least-squares slope of log op time against log(|v(f)|+|v(g)|)."""
    pts = [
        (math.log(op["k"]), math.log(statistics.median(op["lat"])))
        for op in result["ops"]
        if op["k"] and (op["field"] == "Q") == q
    ]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*pts)).slope


def per_layer(untraced, traced):
    tr = traced["trace"]
    names, layers, counts = tr["names"], tr["layers"], tr["counts"]

    def calls(n):
        return names.get(n, {}).get("calls", 0)

    def ms(n):
        return names.get(n, {}).get("ms", 0.0)

    def self_ms(layer):
        return layers.get(layer, {}).get("self_ms", 0.0)

    def count(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    wall_untraced = untraced["walls"][0]
    wall_traced = traced["walls"][0]
    # Spans also cover the probe interrupts that raw op times leave out.
    traced_span_s = sum(op["raw"][0] for op in traced["ops"]) + traced["probe_s"]
    m = {
        "fields.mul.q.calls": count("fields.mul.q"),
        "fields.mul.fp.calls": count("fields.mul.fp"),
        "fields.add.calls": count("fields.add"),
        "fields.inverse.calls": count("fields.inverse"),
        "fields.scalar.calls": count("fields.scalar"),
        "fields.ctx_eq.calls": count("fields.ctx_eq"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.ms": ms("linalg.rref"),
        "linalg.rref.cells": count("linalg.rref.cells"),
        "linalg.rref.max_cols": count("linalg.rref.max_cols"),
        "linalg.solve_in_rowspace.calls": calls("linalg.solve_in_rowspace"),
        "linalg.solve_in_rowspace.ms": ms("linalg.solve_in_rowspace"),
        "linalg.quotient_coords.calls": calls("linalg.quotient_coords"),
        "linalg.det.calls": calls("linalg.det"),
        "linalg.det.ms": ms("linalg.det"),
        "linalg.subspace_sum.ms": ms("linalg.subspace_sum"),
        "linalg.subspace_intersect.ms": ms("linalg.subspace_intersect"),
        "linalg.subspace_contains.ms": ms("linalg.subspace_contains"),
        "linalg.from_rows.already_rref_ratio": ratio(
            count("linalg.from_rows.already_rref"), count("linalg.from_rows.inputs")
        ),
        "linalg.matrix_init.calls": count("linalg.matrix_init"),
        "linalg.self_ms": self_ms("linalg"),
        "laurent.mul_poly_mod.calls": calls("laurent.TruncSeries.mul_poly_mod"),
        "laurent.mul_poly_mod.ms": ms("laurent.TruncSeries.mul_poly_mod"),
        "laurent.series_inverse.calls": calls("laurent.TruncSeries.inverse"),
        "laurent.gl_inverse.calls": calls("laurent.gl_inverse"),
        "laurent.gl_inverse.ms": ms("laurent.gl_inverse"),
        "laurent.det_laurent.calls": calls("laurent.det_laurent"),
        "laurent.matrix_apply.ms": ms("laurent.LaurentMatrix.apply"),
        # parse_laurent_matrix calls parse_laurent: add only its own time.
        "laurent.parse.ms": ms("laurent.parse_laurent")
        + names.get("laurent.parse_laurent_matrix", {}).get("self_ms", 0.0),
        "laurent.precision_errors": count("laurent.precision_errors"),
        "laurent.self_ms": self_ms("laurent"),
        "lattice.act.mult.calls": count("lattice.act.mult"),
        "lattice.act.gl.calls": count("lattice.act.gl"),
        "lattice.act.ms": ms("lattice.act"),
        "lattice.join.ms": ms("lattice.join"),
        "lattice.meet.ms": ms("lattice.meet"),
        "lattice.leq.ms": ms("lattice.leq"),
        "lattice.window_subspace.calls": calls("lattice.Lattice.window_subspace"),
        "lattice.window_subspace.ms": ms("lattice.Lattice.window_subspace"),
        "lattice.normalize.ms": ms("lattice.Lattice.__init__"),
        "lattice.tighten_ratio": ratio(count("lattice.tightened"), count("lattice.init")),
        "lattice.max_window_dim": count("lattice.max_window_dim"),
        "lattice.self_ms": self_ms("lattice"),
        "index_map.index0.ms": ms("index_map.index0"),
        "index_map.build_family.ms": ms("index_map.build_family"),
        "index_map.verify_family.ms": ms("index_map.verify_family"),
        "index_map.family_entries": count("index_map.family_entries"),
        "index_map.self_ms": self_ms("index_map"),
        "detline.commutator.ms": ms("detline.commutator"),
        "detline.cocycle_sigma.calls": calls("detline.cocycle_sigma"),
        "detline.translation_scalar.ms": ms("detline.translation_scalar"),
        "detline.omega.calls": calls("detline.omega"),
        "detline.omega.ms": ms("detline.omega"),
        "detline.self_ms": self_ms("detline"),
        "detline.k_exponent.q": k_exponent(untraced, True),
        "detline.k_exponent.fp": k_exponent(untraced, False),
        "simplicial.ms": layers.get("simplicial", {}).get("busy_ms", 0.0),
        "simplicial.self_ms": self_ms("simplicial"),
        "verify.lattice.ms": ms("verify.suite_lattice"),
        "verify.index.ms": ms("verify.suite_index"),
        "verify.family.ms": ms("verify.suite_family"),
        "verify.detline.ms": ms("verify.suite_detline"),
        "verify.simplicial.ms": ms("verify.suite_simplicial"),
        "verify.self_ms": self_ms("verify"),
        "cli.main.ms": ms("cli.main"),
        "cli.self_ms": self_ms("cli"),
        "bench.self_ms": self_ms("bench"),
        "trace.overhead_ratio": ratio(wall_traced, wall_untraced),
        "trace.accounted_ratio": ratio(sum(v["self_ms"] for v in layers.values()), traced_span_s * 1e3),
        "trace.failed_calls": sum(tr["failures"].values()),
        "trace.spans": tr["spans"],
    }
    return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name):
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("ratio") or ".k_exponent." in name:
        return "1"
    return "count"


def save(name, data):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale)]
    spawn(base + ["--setup-only"], deadline)  # warm the file cache and bytecode
    setups = [spawn(base + ["--setup-only"], deadline)[:2] for _ in range(SETUP_SAMPLES - 1)]
    passes = ["--passes", "1"] if args.trace else []
    setup, raw_setup, result = spawn(base + ["--seconds", str(args.seconds)] + passes, deadline)
    setups.append((setup, raw_setup))
    runs = [result]
    e2e, detail = end_to_end(setups, result)
    metrics = e2e
    if args.trace:
        spans = os.path.join(OUT, "%s.spans.csv.gz" % args.workload)
        traced = spawn(base + ["--passes", "1", "--trace", "--spans", spans], deadline)[2]
        runs.append(traced)
        metrics = per_layer(result, traced)
        save("%s-%d.trace.json" % (args.workload, args.seed), traced["trace"])
        detail.update(
            {
                "untraced_wall_s": result["walls"][0],
                "traced_wall_s": traced["walls"][0],
                "spans_file": os.path.relpath(spans, ROOT),
                "wait": "none: one thread, no I/O and no queue, so no span waits",
            }
        )

    ops = [op for run in runs for op in run["ops"]]
    attempted = sum(len(op["lat"]) for op in ops)
    failed = sum(op["failed"] for op in ops)
    for op in ops:
        if op["failed"]:
            print("FAILED op %d: %s; input %s" % (op["id"], op["error"], json.dumps(op["input"], sort_keys=True)))
    digests = [op["digest"] or "" for op in result["ops"]]
    save("%s-%d.digests.json" % (args.workload, args.seed), {"workload": args.workload, "seed": args.seed, "sha256": digests})
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "fail_ratio": failed / attempted,
            "outputs_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "load": "closed loop, one caller, one process",
        }
    )
    for name, (value, unit) in metrics.items():
        print("%-36s %16.6f %s" % (name, value, unit))
    print("detail %s" % json.dumps(detail, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="share of the op list to run (self-test only)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tatekit", "__init__.py")):
        print("error: no tatekit sources at %s; run from a repository checkout" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
