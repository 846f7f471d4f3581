import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit.cli import main
from tatekit.detline import MAX_FORMULA_BITS
from tatekit.verify import MAX_CASES, run_suites

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_index_of_an_empty_matrix_exits_2(capsys):
    assert run(capsys, "index", "--matrix", ";") == (2, "", "error: rank must be positive\n")
    assert run(capsys, "index") == (2, "", "error: need --f or --matrix\n")  # no automorphism at all


def test_window_cap_exit_2(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "index", "--matrix", "t^600,0;0,t^-600")  # its act window is 2,400
    assert code == 2 and "1024" in err
    assert time.perf_counter() - start < 1.0
    code, _, err = run(capsys, "commutator", "--f", "t^2000", "--g", "t")
    assert code == 2 and "1024" in err


def test_index_of_a_far_monomial_builds_no_window(capsys):
    """O and t^5000 O store no rows, so their join needs no window."""
    start = time.perf_counter()
    code, out, err = run(capsys, "index", "--f", "t^5000")
    assert (code, out, err) == (0, "5000\n", "")
    assert time.perf_counter() - start < 1.0


def test_index_json_lattices(capsys):
    code, out, _ = run(capsys, "index", "--f", "1*t^1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 1
    assert data["L"] == {"rank": 1, "a": 0, "b": 0, "basis": []}
    assert data["gL"]["a"] == 1


@pytest.mark.parametrize("argv", [["--f", "3t^-2+t^4"], ["--field", "F5", "--matrix", "t,1+t;0,t^-1"]])
def test_index_json_computes_its_lattices_once(capsys, monkeypatch, argv):
    import tatekit.cli as cli
    from tatekit import QQ, GF, Automorphism, TateSpace, act, join, parse_laurent, parse_laurent_matrix, std_lattice

    ctx = GF(5) if "F5" in argv else QQ
    g = Automorphism.gl(parse_laurent_matrix(ctx, argv[-1])) if "--matrix" in argv else Automorphism.mult_by(parse_laurent(ctx, argv[-1]))
    L = std_lattice(TateSpace(ctx, g.rank), 0)
    gL = act(g, L)
    N = join(L, gL)
    want = {"index": L.vdim - gL.vdim, "L": L.to_json_dict(), "gL": gL.to_json_dict(), "N": N.to_json_dict()}
    calls = []
    real = cli.act
    monkeypatch.setattr(cli, "act", lambda g, L: calls.append(g) or real(g, L))
    code, out, _ = run(capsys, "index", *argv, "--json")
    assert code == 0 and len(calls) == 1
    assert out == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"


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


def test_readme_cli_examples(capsys):
    """Each ``tatekit ... # -> value`` line of the README prints that value."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("tatekit ") and "# ->" in line]
    assert len(lines) == 5
    for line in lines:
        command, _, expected = line.partition("# ->")
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        assert (code, out.strip()) == (0, expected.split()[0]), line


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


def test_unknown_suite_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2 and out == "" and err.startswith("error: unknown suite 'bogus'")


def test_precision_cap_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["commutator", "--f", "t", "--g", "1+t", "--precision", "1025"])
    assert exc.value.code == 2
    assert "MAX_WINDOW_DIM=1024" in capsys.readouterr().err
    code, out, _ = run(capsys, "commutator", "--f", "t", "--g", "1+t", "--precision", "1024")
    assert code == 0 and out.strip() == "1"


def test_gl_rank_cap_exit_2(capsys):
    # a dense rank-9 matrix is refused before its cofactor determinant runs
    dense = ";".join(",".join("1+t" if i == j else "t" for j in range(9)) for i in range(9))
    start = time.perf_counter()
    code, _, err = run(capsys, "index", "--matrix", dense)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and err.startswith("error: ") and "MAX_GL_RANK=8" in err
    eight = ";".join(",".join("t" if i == j else "0" for j in range(8)) for i in range(8))
    code, out, _ = run(capsys, "index", "--matrix", eight)
    assert code == 0 and out.strip() == "8"


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
    # over Q and F_p, in both modes, the named precision gives the formula
    for field in ("Q", "Fp:1000003"):
        for mode in ("ungraded", "graded"):
            for f, g, precision in (("1-t^2", "t^2", 1), ("1-t", "t^30", 4), ("t^-5+t^-3", "3*t^2-t^5+t^7", 1)):
                argv = ("commutator", "--field", field, "--mode", mode, "--f", f, "--g", g, "--json")
                code, _, err = run(capsys, *argv, "--precision", str(precision))
                hint = re.search(r"--precision >= (\d+)", err).group(1)
                assert code == 3 and int(hint) > precision
                code, out, _ = run(capsys, *argv, "--precision", hint)
                assert code == 0 and json.loads(out)["match"]
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


def test_verify_cases_has_a_cap(capsys):
    """``run_suites`` holds the one limit on the case count, so the API and
    the CLI refuse the same counts; the CLI with one ``error:`` line."""
    code, out, err = run(capsys, "verify", "--cases", "99999999999999999999")
    assert (code, out) == (2, "")
    assert err == "error: cases must be from 1 to MAX_CASES=%d, got 99999999999999999999\n" % MAX_CASES
    with pytest.raises(ValueError):
        run_suites("lattice", cases=MAX_CASES + 1)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"cases": 0}, ValueError),
        ({"cases": -1}, ValueError),
        ({"seed": None}, TypeError),
        ({"seed": 1.5}, TypeError),
        ({"seed": "7"}, TypeError),
    ],
    ids=["cases-0", "cases-negative", "seed-none", "seed-float", "seed-str"],
)
def test_run_suites_refuses_an_empty_run_and_a_seed_it_cannot_report(kwargs, error):
    """``run_suites`` never passes on zero checks, as ``--cases 0`` is
    refused, and its report names the integer seed it ran with: ``None``
    would seed from the OS and report ``null``."""
    with pytest.raises(error):
        run_suites("lattice", **kwargs)


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


def test_index_f_and_matrix_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index", "--f=t", "--matrix=t^2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err.splitlines()[-1]


def cli_process(*argv, stdout, unbuffered=False):
    """``python -m tatekit.cli`` in a child process, stderr piped, stdout
    block-buffered as by default (PYTHONUNBUFFERED would make every print
    write at once, and the flush paths would go untested), or unbuffered
    when asked."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "tatekit.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, text=True
    )


def assert_one_error_line(err):
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_without_traceback():
    with open("/dev/full", "w") as full:
        proc = cli_process("index", "--f", "t", stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert_one_error_line(err)
    assert "[Errno 28]" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("--help",), ("index", "-h")], ids=["help", "subcommand-help"])
def test_help_to_full_stdout_exits_2_without_traceback(argv):
    # Buffered, argparse's help write succeeds and it exits; the failure would
    # surface only in the flush at interpreter exit (exit 120) unless main
    # flushes first.  Unbuffered, the write itself fails, and argparse's own
    # writer would swallow the error and exit 0.
    for unbuffered in (False, True):
        with open("/dev/full", "w") as full:
            proc = cli_process(*argv, stdout=full, unbuffered=unbuffered)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2, unbuffered
        assert_one_error_line(err)
        assert "[Errno 28]" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tatekit") and "commutator" in out


@pytest.mark.parametrize(
    "argv",
    [("verify", "--suite", "all", "--seed", "7", "--json"), ("index", "--f", "t")],
    ids=["large-verify-report", "one-line"],
)
def test_closed_pipe_exits_2_without_traceback(argv):
    # The reader is gone before anything is written.  A large report fails
    # inside print; a short answer fails only when main flushes stdout, and
    # then again at interpreter exit unless stdout was pointed at devnull.
    proc = cli_process(*argv, stdout=subprocess.PIPE)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert_one_error_line(err)
    assert "[Errno 32]" in err


def test_long_exact_answers_print_in_full(capsys):
    code, out, _ = run(capsys, "tame", "--f", "2+t", "--g", "t^100000")
    digits = out.strip()
    # 2^100000 has 30103 digits; compare its ends without converting it.
    assert code == 0 and len(digits) == 30103
    assert int(digits[:20]) == 2**100000 // 10**30083
    assert int(digits[-20:]) == pow(2, 100000, 10**20)
    code, out, _ = run(capsys, "tame", "--f", "2+t", "--g", "t^100000", "--json")
    assert code == 0 and json.loads(out)["tame_symbol"] == digits
    # Over Q through the commutator: 1000000007^600 has 5401 digits.
    code, out, _ = run(capsys, "commutator", "--f", "1000000007+t", "--g", "t^600", "--precision", "601", "--json")
    data = json.loads(out)
    assert code == 0 and data["match"] is True
    value = data["commutator"]["value"]
    assert len(value) == 5401 and int(value[-18:]) == pow(1000000007, 600, 10**18)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="Python without a digit limit")
def test_digit_limit_is_lifted_for_printing_only(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(capsys, "tame", "--f", "2+t", "--g", "t^100000")[0] == 0
        assert sys.get_int_max_str_digits() == 4300
        code, _, err = run(capsys, "tame", "--f", "1" * 5000 + "+t", "--g", "t")
        assert code == 2 and "4300" in err
    finally:
        sys.set_int_max_str_digits(before)


def test_closed_formula_limit_exits_2_quickly(capsys):
    for cmd in ("tame", "commutator"):
        start = time.perf_counter()
        code, out, err = run(capsys, cmd, "--f", "3*t^7+t^9", "--g", "t^99999999")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and "MAX_FORMULA_BITS=%d" % MAX_FORMULA_BITS in err
    # Over F_p the powers are modular: no limit applies.
    code, out, _ = run(capsys, "tame", "--field", "F5", "--f", "3*t^7+t^9", "--g", "t^99999999")
    assert code == 0 and out.strip() == str(-pow(3, 99999999, 5) % 5)


def test_a_units_degree_costs_only_its_terms(capsys):
    """A unit of degree 10^9 costs its two stored terms, not one coefficient
    per exponent up to the degree."""
    f, g = "5t^1000000000+5t", "t^6+5t^-9"
    tame = run(capsys, "tame", "--f", f, "--g", g)[1]
    cases = [
        (["index", "--f", "t^1000000000+1"], "0\n"),
        (["commutator", "--f", f, "--g", g, "--mode", "graded"], tame),
    ]
    for argv, want in cases:
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, want) and peak < 1 << 20


# -- the exit-code contract under random argument vectors ---------------------

def mostly(valid, invalid):
    """Draws from ``valid`` about four times as often as from ``invalid``."""
    return st.sampled_from(valid * 4 + invalid)


FIELDS = mostly(["Q", "Fp:2", "Fp:3", "F5", "Fp:1000003"], ["Fp:4", "F1", "Fp:x", "R", ""])
COEFFS = ["", "1", "2", "-3", "7", "1/2", "-2/3", "+5"]
TERMS = ["{c}*t^{e}", "{c}t^{e}", "{c}*t", "t^{e}", "{c}1"]
BAD_TERMS = ["{c}*t^", "t^{e}^2", "*", "{c}t^{e}t", "3/0*t^{e}", "x*t", "1/*t", "0", ""]


@st.composite
def laurent_texts(draw, exponents):
    """A Laurent expression from the CLI term grammar; about one in seven
    has one malformed or zero term (a dangling ``^`` or operator, a bad
    coefficient or a zero denominator)."""
    n = draw(st.integers(1, 4))
    bad = draw(st.integers(-6 * n, n - 1))  # the malformed term, if >= 0
    text = ""
    for k in range(n):
        term = draw(st.sampled_from(BAD_TERMS if k == bad else TERMS)).format(c=draw(st.sampled_from(COEFFS)), e=draw(exponents))
        text += (draw(st.sampled_from([" + ", "+", "-", " - "])) if k else "") + term
    return text


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(1, 3))
    entry = st.one_of(
        st.sampled_from(["0", "1", "t", "t^-1", "2*t^2", "1+t", "1/2", "-t^3"]),
        laurent_texts(st.integers(-3, 3)),
    )
    return ";".join(",".join(draw(entry) for _ in range(n)) for _ in range(draw(st.sampled_from([n, n, n + 1]))))


@st.composite
def argvs(draw):
    """A random ``tatekit`` argument vector: a command with random options,
    or no command at all."""
    poly = laurent_texts(st.sampled_from([*range(-40, 41), 2000, -2000, 5000]))
    field = ["--field", draw(FIELDS)] if draw(st.booleans()) else []
    json_flag = ["--json"] if draw(st.booleans()) else []
    command = draw(mostly(["index", "commutator", "tame", "verify"], ["frob", None]))
    if command == "index":
        # "--f=" keeps a leading "-" from reading as an option; at times both
        # or neither of the exclusive options is given.
        choice = draw(mostly(["f", "matrix"], ["both", "none"]))
        args = ["--f=" + draw(poly)] if choice in ("f", "both") else []
        args += ["--matrix=" + draw(matrix_texts())] if choice in ("matrix", "both") else []
        return ["index", *field, *args, *json_flag]
    if command in ("commutator", "tame"):
        args = [command, *field, "--f=" + draw(poly), "--g=" + draw(poly), *json_flag]
        if command == "commutator":
            args += ["--mode", draw(mostly(["graded", "ungraded"], ["both"]))]
            if draw(st.booleans()):
                args += ["--precision", draw(mostly([str(k) for k in range(1, 90, 7)], ["0", "-1", "x", "2000"]))]
        return args
    if command == "verify":
        return [
            "verify",
            "--suite",
            draw(mostly(["lattice", "index", "family", "detline", "simplicial", "all"], ["bogus"])),
            "--cases",
            draw(mostly(["1", "2"], ["0", "x"])),
            "--seed",
            str(draw(st.integers(0, 10**6))),
            *json_flag,
        ]
    return [command, *json_flag] if command else []


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_random_argv_keeps_the_exit_code_contract(argv):
    """Every input exits 0, 2 or 3, or 1 from ``verify`` alone, and never
    with an uncaught exception or a traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help or a usage error
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert code != 1 or argv[0] == "verify", argv
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().strip(), argv
