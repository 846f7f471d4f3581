"""Expected answers computed without tatekit.

Each ``check_*`` takes an op from ``workloads.py`` and what tatekit returned
for it, and gives ``None`` when the answer is right or a one-line reason
when it is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import P

# The check names each suite must report for one case, all passing.
VERIFY_CHECKS = {
    "lattice": {
        "directed_up", "directed_down", "join_comm", "meet_comm", "join_assoc", "meet_assoc",
        "join_idem", "meet_idem", "absorb", "modular_dims", "act_order", "act_join",
        "act_compose", "normalize_idem",
    },
    "index": {
        "winding", "gl_winding", "choice_independent", "euler_equals_index",
        "additive_mult", "additive_gl",
    },
    "family": {"family_len1", "family_len2", "family_len3", "fault_detected_len2", "fault_detected_len3"},
    "detline": {
        "cocycle_ungraded", "cocycle_graded", "nested_monomial_omega", "ext_assoc",
        "commutator_ungraded", "commutator_graded", "graded_ratio", "bimultiplicative",
        "dim_theory_relation", "dim_theories_differ_by_constant", "det_coherence",
    },
    # 15 fixed Ex/sd comparisons plus five checks for the one random case.
    "simplicial": {
        "ex_matches_sd_maps", "nerve_identities", "star_tree_admissible",
        "k0_reconstruction", "k0_reconstruction_B2", "preindex_chain_rule",
    },
}
VERIFY_COUNTS = {"lattice": 14, "index": 6, "family": 5, "detline": 11, "simplicial": 20}


def check_verify(op, report_json: str):
    report = json.loads(report_json)
    checks = report.get("checks", [])
    names = {c["check"] for c in checks}
    if names != VERIFY_CHECKS[op["suite"]] or len(checks) != VERIFY_COUNTS[op["suite"]]:
        return "ran checks %s, expected %s" % (sorted(names), sorted(VERIFY_CHECKS[op["suite"]]))
    failed = [c["check"] for c in checks if c["status"] != "pass"]
    if failed or not report.get("passed"):
        return "failed checks %s" % failed
    return None


def commutator_value(op) -> str:
    """(-1)^(v(f)v(g)) [graded only] * a^v(g) / b^v(f), a and b the
    leading coefficients, printed as tatekit prints a scalar."""
    vf, vg, a, b = op["vf"], op["vg"], op["af"], op["ag"]
    sign = -1 if op["mode"] == "graded" and vf % 2 and vg % 2 else 1
    if op["field"] == "Q":
        return str(sign * Fraction(a) ** vg / Fraction(b) ** vf)
    return str(sign * pow(a, vg, P) * pow(b, -vf, P) % P)


def check_commutator(op, stdout: str):
    want = commutator_value(op)
    out = json.loads(stdout)
    got = out["commutator"]["value"]
    if got != want or out["formula"] != want or out["commutator"]["mode"] != op["mode"] or out["match"] is not True:
        return "commutator %s, formula %s, expected %s" % (got, out["formula"], want)
    return None


def check_family(op, result):
    """``result`` holds the index CLI outputs, the verify_family report and
    index_simplex of every 1-face (i, j)."""
    want = op["det_vals"]
    got = [int(s) for s in result["index"]]
    if got != want:
        return "index per arrow %s, expected det valuations %s" % (got, want)
    bad = [r["check"] + " " + r["simplex"] for r in result["report"] if r["status"] != "pass"]
    if bad or not result["report"]:
        return "verify_family failed: %s" % bad[:3]
    for (i, j), dims in result["simplex"]:
        if dims[0] - dims[1] != sum(want[i:j]):
            return "index_simplex(%d,%d) = %s, expected difference %d" % (i, j, dims, sum(want[i:j]))
    return None
