"""Self-test of the benchmark itself (not of tatekit).

    python3 bench/selftest.py

Runs every workload at a tiny size through ``run.py``, untraced and traced,
and checks that the last line names exactly the metrics of BENCHMARK.json
and that every op passed.  Then it injects a wrong answer into one public
tatekit function per workload (in this process only) and checks that the
oracle flags the ops that use it; checks that the precision rule suffices
where the default precision does not; and checks that ``run.py`` fails
without printing a result when the tatekit sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        check.failed += 1


check.failed = 0


def run_bench(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
        "--seconds", "1", "--trace", str(trace), "--scale", "0.1",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec, {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def test_runs():
    spec, e2e, layers = metric_names()
    for w in spec["workloads"]:
        for trace, names in ((0, e2e), (1, layers)):
            proc = run_bench(w["name"], trace)
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            check(proc.returncode == 0 and sorted(last) == ["attempted", "correct", "failed", "metrics"],
                  "%s --trace %d prints a result" % (w["name"], trace))
            check(set(last.get("metrics", {})) == names, "%s --trace %d names every metric" % (w["name"], trace))
            check(last.get("correct") is True and last.get("failed") == 0 and last.get("attempted", 0) >= 1,
                  "%s --trace %d: every op correct" % (w["name"], trace))


def failures_with(workload, module, name, wrong):
    """Failed ops of a tiny run while tatekit.<module>.<name> answers wrong."""
    import importlib

    fn = getattr(importlib.import_module("tatekit." + module), name)
    t = tracer.Tracer()
    t.patch_function(fn, lambda *a, **k: wrong(fn(*a, **k)))
    try:
        ops = workloads.make_ops(workload, 5, 0.1)
        results = [worker.execute(op, worker.build_input(op), worker.run_op, worker.speed.Sampler()) for op in ops]
    finally:
        t.uninstall()
    return sum(r[4] is not None for r in results), len(ops)


def test_injected_faults():
    import tatekit.cli  # noqa: F401
    from tatekit.lattice import std_lattice

    bad, n = failures_with("commutator-deep", "detline", "commutator", lambda z: z + z.ctx.one())
    check(bad == n, "commutator-deep: a wrong commutator fails every op (%d/%d)" % (bad, n))
    bad, n = failures_with("family-gl", "index_map", "index0", lambda i: i + 1)
    check(bad == n, "family-gl: a wrong index0 fails every op (%d/%d)" % (bad, n))
    bad, n = failures_with("verify-suites", "lattice", "join", lambda L: std_lattice(L.space, [-L.b - 1] * L.space.rank))
    check(bad > 0, "verify-suites: a wrong join fails ops (%d/%d)" % (bad, n))
    ops = workloads.make_ops("verify-suites", 5, 0.1)
    results = [worker.execute(op, None, worker.run_op, worker.speed.Sampler()) for op in ops]
    check(all(r[4] is None for r in results), "faults are gone once the wrappers are removed")


def test_precision_rule():
    # (1-t, t^30): the default precision 16 is short; |v(f)| + |v(g)| + 1 is enough.
    argv = ["commutator", "--field", "Q", "--f", "1-t", "--g", "t^30", "--json"]
    code_default = worker._cli(argv)[0]
    code_rule = worker._cli(argv + ["--precision", str(0 + 30 + 1)])[0]
    check(code_default == 3 and code_rule == 0, "precision rule: default exits %s, rule exits %s" % (code_default, code_rule))


def test_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("family-gl", 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "attempted" not in proc.stdout, "without tatekit sources: exit %d, no result" % proc.returncode)


def main():
    test_precision_rule()
    test_injected_faults()
    test_without_sources()
    test_runs()
    print("%d check(s) failed" % check.failed)
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
