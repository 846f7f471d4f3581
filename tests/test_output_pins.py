"""Byte pins of the outputs that otherwise only the CI workflow pins.

The "Family report hash" and "Index JSON hashes" steps of
``.github/workflows/tier1.yml`` hash a ``verify_family`` report, the
lattices of a family and two ``index --json`` outputs.  These tests compute
the same hashes in process, so a change to a family lattice or to the
index JSON fails the tier-1 suite too.  The CI steps stay: they run the
installed package from a shell.
"""

import hashlib
import json

import pytest

from tatekit import QQ, AutChain, Automorphism, TateSpace, build_family, parse_laurent_matrix, verify_family
from tatekit.cli import main

RANK_4_CHAIN = (
    "-8*t^1,0,0,-40*t^3;24*t^1,5*t^2,10*t^1,-25*t^2+120*t^3;-8*t^-1,0,4*t^0,-40*t^1;72*t^2,-40*t^4,-80*t^3,-9*t^2+560*t^4",
    "2*t^-1,6*t^-1,0,-18*t^-1;-2*t^-3,-6*t^-3-2*t^-2,-8*t^-2,20*t^-3;0,-12*t^-3,-48*t^-3-5*t^-2,12*t^-4+10*t^-1;"
    "8*t^-1,24*t^-1,45*t^-4,-90*t^-3-72*t^-1-1*t^2",
    "-9*t^-2,-63*t^-3,0,0;-18*t^-1,-126*t^-2-5*t^0,-10*t^2,45*t^0;-27*t^0,-189*t^-1-25*t^2,-2*t^2-50*t^4,"
    "2*t^1+225*t^2;0,-45*t^-1,-90*t^1,405*t^-1-1*t^2",
)


def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def family(rank, matrices):
    return build_family(AutChain(TateSpace(QQ, rank), [Automorphism.gl(parse_laurent_matrix(QQ, m)) for m in matrices]))


def test_rank_2_family_report_hash():
    report = verify_family(family(2, ("t,1;0,1", "1,0;t^-1,t^2", "2,t;0,t^-1")))
    assert sha(report) == "6b243f0cf5c80d658d566243eae599ba7710b4ed1f2cdb03533f79f9344af197"


def test_rank_4_family_report_and_entries_hash():
    """The L*D*U chain's image rows are mostly dense; the hash pins every lattice of its family."""
    fam = family(4, RANK_4_CHAIN)
    entries = [[list(kept), list(I), L.to_json_dict()] for (kept, I), L in sorted(fam.entries.items())]
    assert sha({"report": verify_family(fam), "entries": entries}) == (
        "10d95525b7bb693dd9dfca0bb216f684808f97e0c0959f7f979edd47c4b11243"
    )


@pytest.mark.parametrize(
    "argv, want",
    [
        (["index", "--f", "3t^-2+t^4"], "643ec487f58110244ed72e4da6e56b85f7b6d788c2e040ce290320f106e13538"),
        (
            ["index", "--field", "F5", "--matrix", "t,1+t;0,t^-1"],
            "b532dd514b1b56b51ba7ea8ec28716953f1cb73ba6f70a92f3b2092c5b860046",
        ),
    ],
    ids=["mult", "gl-F5"],
)
def test_index_json_hash(capsys, argv, want):
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want
