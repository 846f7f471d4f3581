"""Run one workload in a fresh process and print its raw timings as JSON.

Started by ``run.py`` with ``src`` on PYTHONPATH.  After importing tatekit
and building every op input it prints ``READY``, the seconds spent
generating inputs and the monotonic clock, so the parent can time set-up.
Then it runs whole passes over the op list until ``--seconds`` would be
exceeded (always at least one pass, at most ``--passes``).  Only the
tatekit calls of an op are timed; the oracle check and the output digest
run outside the timed region.  Op times are scaled to the reference speed
of ``speed.py``; the raw times are reported too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import oracle
import speed
import workloads

STDOUT = sys.stdout


def _cli(argv):
    """One tatekit CLI call in-process; returns (exit code, stdout, stderr)."""
    from tatekit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class CliFailed(Exception):
    pass


def _checked_cli(argv):
    code, out, err = _cli(argv)
    if code != 0:
        raise CliFailed("exit %s: %s" % (code, err.strip()[:300]))
    return out


def build_input(op):
    """The tatekit objects an op needs, built as a CLI user's command would."""
    from tatekit import fields, index_map, lattice, laurent

    if op["kind"] == "verify":
        return None
    ctx = fields.QQ if op["field"] == "Q" else fields.GF(workloads.P)
    if op["kind"] == "commutator":
        return (laurent.parse_laurent(ctx, op["f"]), laurent.parse_laurent(ctx, op["g"]))
    autos = [laurent.Automorphism.gl(laurent.parse_laurent_matrix(ctx, m)) for m in op["arrows"]]
    return index_map.AutChain(lattice.TateSpace(ctx, op["rank"]), autos)


def run_op(op, built):
    """The timed part of an op: tatekit calls only."""
    from tatekit import index_map, verify

    if op["kind"] == "verify":
        return verify.run_suites(op["suite"], cases=1, seed=op["seed"])
    if op["kind"] == "commutator":
        return _checked_cli(
            [
                "commutator",
                "--field", op["field"],
                "--f=" + op["f"],
                "--g=" + op["g"],
                "--mode", op["mode"],
                "--precision", str(op["precision"]),
                "--json",
            ]
        )
    index = [_checked_cli(["index", "--field", op["field"], "--matrix=" + m]).strip() for m in op["arrows"]]
    family = index_map.build_family(built)
    report = index_map.verify_family(family)
    n = len(op["arrows"])
    simplex = [[[i, j], index_map.index_simplex(family, (i, j))] for i in range(n) for j in range(i + 1, n + 1)]
    return {"index": index, "report": report, "simplex": simplex}


def canonical(op, raw) -> str:
    """The op's output as bytes a user would see: report JSON or stdout."""
    if op["kind"] == "commutator":
        return raw
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


CHECKS = {
    "verify": oracle.check_verify,
    "commutator": oracle.check_commutator,
    "family": lambda op, text: oracle.check_family(op, json.loads(text)),
}


def execute(op, built, run, sampler):
    """Run and check one op.

    Returns (start, end, seconds, sha256 of the output, failure or None);
    ``seconds`` leaves out the time the speed probe interrupted the op.
    """
    busy = sampler.busy
    t0 = time.perf_counter()
    try:
        raw = run(op, built)
        error = None
    except Exception as exc:  # every error is a failed op, never retried
        error = "%s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    seconds = t1 - t0 - (sampler.busy - busy)
    if error is not None:
        return t0, t1, seconds, None, error
    text = canonical(op, raw)
    return t0, t1, seconds, hashlib.sha256(text.encode()).hexdigest(), CHECKS[op["kind"]](op, text)


def run_passes(ops, built, seconds, max_passes, run=run_op):
    """Whole passes over ``ops`` under the speed probe.

    Returns one record per op (scaled and raw seconds per pass, output
    digest, first failure), the summed scaled seconds of each pass and the
    seconds spent in probes.
    """
    records = [{"lat": [], "raw": [], "digest": None, "error": None, "failed": 0} for _ in ops]
    timed = []  # (record, start, end) of every execution, in order
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    try:
        npasses = 0
        while True:
            for op, inp, rec in zip(ops, built, records):
                t0, t1, sec, digest, error = execute(op, inp, run, sampler)
                rec["raw"].append(sec)
                timed.append((rec, t0, t1))
                if error is None and rec["digest"] not in (None, digest):
                    error = "output changed between passes"
                if error is not None:
                    rec["failed"] += 1
                    rec["error"] = rec["error"] or error
                rec["digest"] = rec["digest"] or digest
            npasses += 1
            elapsed = time.perf_counter() - start
            if npasses >= max_passes or elapsed + elapsed / npasses > seconds:
                break
    finally:
        sampler.stop()
    # Scale once every probe is in: an op's speed uses probes after it too.
    for rec, t0, t1 in timed:
        rec["lat"].append(rec["raw"][len(rec["lat"])] * sampler.scale(t0, t1))
    walls = [sum(rec["lat"][p] for rec in records) for p in range(npasses)]
    return records, walls, sampler.busy


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=1000)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args(argv)

    import tatekit.cli  # noqa: F401  (the import a CLI user pays for)

    t0 = time.perf_counter()
    ops = workloads.make_ops(args.workload, args.seed, args.scale)
    generate_s = time.perf_counter() - t0
    built = [build_input(op) for op in ops]
    STDOUT.write("READY %.9f %.9f\n" % (generate_s, time.monotonic()))
    STDOUT.flush()
    if args.setup_only:
        return 0

    tracer = None
    run = run_op
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced_op = tracer.span_wrapper(run_op, "bench.op", "bench")

        def run(op, inp):
            tracer.op_id[0] = op["id"]
            return traced_op(op, inp)

    records, walls, probe_s = run_passes(ops, built, args.seconds, args.passes, run)
    result = {
        "ops": [
            {
                "id": op["id"],
                "field": op["field"],
                "k": op.get("k"),
                "lat": rec["lat"],
                "raw": rec["raw"],
                "digest": rec["digest"],
                "failed": rec["failed"],
                "error": rec["error"],
                "input": None if rec["error"] is None else op,
            }
            for op, rec in zip(ops, records)
        ],
        "walls": walls,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.write_spans(args.spans)
    STDOUT.write(json.dumps(result) + "\n")
    STDOUT.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
