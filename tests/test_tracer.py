"""The bench tracer still installs against the tree: every method it wraps
is in its class's ``__dict__``, every probe reads names that still exist,
and ``uninstall`` puts every original back.  The tracer is loaded from
``bench/``, and nothing there is written."""

import importlib.util
import sys
from pathlib import Path

import tatekit.cli  # noqa: F401  (the tracer wraps every layer module)
import tatekit.index_map
import tatekit.lattice
import tatekit.linalg
from tatekit import QQ, Automorphism, TateSpace, parse_laurent_matrix
from tatekit.fields import FieldCtx


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Every attribute of every tatekit module, of each class it defines and
    of each dict it holds."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "tatekit" or name.startswith("tatekit."):
            for attr, value in vars(module).items():
                out[name, attr] = value
                if isinstance(value, type) and value.__module__ == name:
                    inner = vars(value)
                elif isinstance(value, dict):
                    inner = value
                else:
                    continue
                for key, item in inner.items():
                    out[name, attr, key] = item
    return out


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    eq = FieldCtx.__dict__["__eq__"]
    before = _snapshot()
    t = tracer.Tracer()
    try:
        t.install()
        assert FieldCtx.__dict__["__eq__"] is not eq
        for layer, methods in tracer.SPAN_LAYERS.items():
            module = sys.modules["tatekit." + layer]
            for spec in methods:
                cls_name, attr = spec.split(".")
                key = ("tatekit." + layer, cls_name, attr)
                assert vars(getattr(module, cls_name))[attr] is not before[key], spec
    finally:
        t.uninstall()
    assert FieldCtx.__dict__["__eq__"] is eq
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_every_probe_counts_a_call(monkeypatch):
    """Each probe runs on a call made through its module attribute and reads
    what it needs off that call (``from_rows`` reads ``Subspace.basis`` and
    ``Matrix.entries``): a probe that breaks raises here or counts under
    ``failures``."""
    tracer = _load_tracer(monkeypatch)
    space = TateSpace(QQ, 2)
    g = Automorphism.gl(parse_laurent_matrix(QQ, "1,t;0,1"))
    t = tracer.Tracer()
    try:
        t.install()
        sub = tatekit.linalg.Subspace.from_rows(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        L = tatekit.lattice.Lattice(space, 1, 1, sub)
        tatekit.lattice.act(g, L)
        tatekit.index_map.build_family(tatekit.index_map.AutChain(space, [g]))
    finally:
        t.uninstall()
    summary = t.summary()
    counts = summary["counts"]
    for key in ("linalg.from_rows.inputs", "lattice.init", "lattice.act.gl", "index_map.family_entries"):
        assert counts[key] > 0, key
    assert summary["failures"] == {}
