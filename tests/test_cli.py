import json
import re
import time

import pytest

from tatekit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_mult(capsys):
    code, out, _ = run(capsys, "index", "--field", "Q", "--f", "1*t^1")
    assert code == 0 and out.strip() == "1"


def test_index_identity_f5(capsys):
    code, out, _ = run(capsys, "index", "--field", "F5", "--f", "1")
    assert code == 0 and out.strip() == "0"


def test_index_matrix(capsys):
    code, out, _ = run(capsys, "index", "--field", "Q", "--matrix", "t,0;0,t^2")
    assert code == 0 and out.strip() == "3"


def test_index_matrix_rank_one_is_mult(capsys):
    # a 1x1 matrix is the multiplication by its entry, which needs no monomial det
    code, out, _ = run(capsys, "index", "--matrix", "1-t")
    assert code == 0 and out == run(capsys, "index", "--f", "1-t")[1] and out.strip() == "0"
    code, _, err = run(capsys, "index", "--matrix", "0")
    assert code == 2 and "error" in err


def test_window_cap_exit_2(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "index", "--f", "t^5000")
    assert code == 2 and "1024" in err
    assert time.perf_counter() - start < 1.0
    code, _, err = run(capsys, "commutator", "--f", "t^2000", "--g", "t")
    assert code == 2 and "1024" in err


def test_index_json_lattices(capsys):
    code, out, _ = run(capsys, "index", "--f", "1*t^1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 1
    assert data["L"] == {"rank": 1, "a": 0, "b": 0, "basis": []}
    assert data["gL"]["a"] == 1


def test_commutator(capsys):
    code, out, _ = run(
        capsys, "commutator", "--field", "Q", "--f", "1*t^1", "--g", "2", "--mode", "ungraded"
    )
    assert code == 0 and out.strip() == "1/2"


def test_commutator_constants(capsys):
    code, out, _ = run(capsys, "commutator", "--f", "3", "--g", "7")
    assert code == 0 and out.strip() == "1"


def test_commutator_json_match_flag(capsys):
    code, out, _ = run(
        capsys, "commutator", "--f", "1*t^1", "--g", "1-t", "--mode", "graded", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["commutator"]["mode"] == "graded"
    assert data["commutator"]["value"] == data["formula"]


def test_tame(capsys):
    code, out, _ = run(capsys, "tame", "--f", "1*t^1", "--g", "1*t^1")
    assert code == 0 and out.strip() == "-1"


def test_parse_error_exit_2(capsys):
    # zero denominators are typed errors too, not tracebacks
    for argv in (["--f", "no&t^a(poly"], ["--f", "1/0*t"], ["--f", "1/5*t", "--field", "F5"]):
        code, _, err = run(capsys, "index", *argv)
        assert code == 2 and "error" in err


def test_bad_field_exit_2(capsys):
    code, _, err = run(capsys, "index", "--field", "F8:", "--f", "t")
    assert code == 2
    # psi_13: beyond the range where the primality test is exact
    code, _, err = run(capsys, "index", "--field", "Fp:3317044064679887385961981", "--f", "t")
    assert code == 2 and "modulus" in err


def test_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2 and "unknown suite" in err


def test_precision_exit_3(capsys):
    # inverting 1-t at precision 1 starves the commutator's lattice action
    code, _, err = run(
        capsys, "commutator", "--f", "1-t^2", "--g", "1*t^2", "--precision", "1"
    )
    assert code == 3
    assert "precision" in err and "--precision" in err


def test_precision_hint_suffices(capsys):
    code, _, err = run(capsys, "commutator", "--f", "1-t", "--g", "t^30", "--precision", "4")
    assert code == 3
    hint = re.search(r"--precision >= (\d+)", err).group(1)
    code, out, _ = run(capsys, "commutator", "--f", "1-t", "--g", "t^30", "--precision", hint)
    assert code == 0 and out.strip() == "1"
    # the batch need never exceeds the old per-window check
    code, _, _ = run(
        capsys, "commutator", "--f", "t^-5+t^-3", "--g", "3*t^2-t^5", "--precision", "2"
    )
    assert code == 0


def test_precision_only_on_commutator(capsys):
    for cmd in (["index", "--f", "t"], ["tame", "--f", "t", "--g", "t"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--precision", "4"])
        assert exc.value.code == 2


def test_verify_cases_must_be_positive(capsys):
    for cases in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "lattice", "--cases", cases])
        assert exc.value.code == 2


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lattice", "--cases", "3", "--seed", "7")
    assert code == 0 and "PASS" in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "verify", "--suite", "index", "--cases", "4", "--seed", "9", "--json"
    )
    code2, out2, _ = run(
        capsys, "verify", "--suite", "index", "--cases", "4", "--seed", "9", "--json"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert {c["status"] for c in report["checks"]} == {"pass"}


def test_verify_different_seeds_differ(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "detline", "--cases", "2", "--seed", "1", "--json")
    _, out2, _ = run(capsys, "verify", "--suite", "detline", "--cases", "2", "--seed", "2", "--json")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["passed"] and r2["passed"]
    assert r1["seed"] != r2["seed"]
