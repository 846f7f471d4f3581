"""In-memory spans and counters around tatekit's public calls.

The tracer patches tatekit from the outside: every public module-level
function of each layer module, plus a few methods, is replaced by a wrapper
that records a span (name, start, end, parent span, op id).  Each function
is replaced under every name any tatekit module holds it by, dict values
included, so calls made through an imported name cannot bypass the span.
Scalar arithmetic and a few constructors run millions of times, so they only
count calls.  Nothing in tatekit's source changes, and ``uninstall`` puts
every original back.

There is one thread and no I/O, so no span ever waits: busy time is all the
time there is, and no wait metric exists.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

# Layer -> methods that get spans besides the module's public functions.
SPAN_LAYERS = {
    "linalg": ("Subspace.from_rows", "Subspace.contains_vector", "Matrix.__mul__"),
    "laurent": (
        "TruncSeries.mul_poly_mod",
        "TruncSeries.inverse",
        "TruncSeries.__mul__",
        "LaurentMatrix.apply",
        "LaurentMatrix.__mul__",
        "Automorphism.__init__",
        "Automorphism.compose",
        "Automorphism.inverse",
    ),
    "lattice": (
        "Lattice.__init__",
        "Lattice.std",
        "Lattice.window_subspace",
        "Lattice.basis_vectors",
        "Lattice.contains_vector",
        "LatticeChain.__init__",
    ),
    "index_map": (),
    "detline": ("DimensionTheory.eval", "DeterminantTheory.eval", "ExtElement.lift"),
    "simplicial": ("FinSimplicialSet.check_identities", "AdmissibleDiagram.__init__"),
    "verify": (),
    "cli": (),
}


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self.name_layer = []  # layer index per name id
        self.layers = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # bit 1: outermost of its name, bit 2: of its layer
        self.current = [-1]
        self.op_id = [-1]
        self.counts = {}
        self.failures = {}
        self._name_depth = []  # open spans per name id
        self._layer_depth = []  # open spans per layer index
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name, layer):
        if layer not in self.layers:
            self.layers.append(layer)
            self._layer_depth.append(0)
        self.names.append(name)
        self.name_layer.append(self.layers.index(layer))
        self._name_depth.append(0)
        return len(self.names) - 1

    def cell(self, key):
        return self.counts.setdefault(key, [0])

    def span_wrapper(self, fn, name, layer, probe=None):
        nid = self._name_id(name, layer)
        lid = self.name_layer[nid]
        names, parents, ops = self.span_name.append, self.span_parent.append, self.span_op.append
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        current, op_id = self.current, self.op_id
        name_depth, layer_depth = self._name_depth, self._layer_depth
        failed = self._failure_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            parent = current[0]
            names(nid)
            parents(parent)
            ops(op_id[0])
            outer.append((name_depth[nid] == 0) | ((layer_depth[lid] == 0) << 1))
            starts.append(0.0)
            ends.append(0.0)
            name_depth[nid] += 1
            layer_depth[lid] += 1
            current[0] = i
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed(lid, exc)
                raise
            finally:
                t1 = perf_counter()
                current[0] = parent
                name_depth[nid] -= 1
                layer_depth[lid] -= 1
                starts[i] = t0
                ends[i] = t1
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _failure_counter(self, lid, exc):
        # Count each exception once, at the innermost wrapped call it leaves.
        if not getattr(exc, "_bench_counted", False):
            try:
                exc._bench_counted = True
            except AttributeError:
                pass
            layer = self.layers[lid]
            self.failures[layer] = self.failures.get(layer, 0) + 1

    def count_wrapper(self, fn, key):
        cell = self.cell(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, wrapper):
        """Replace ``fn`` under every name tatekit holds it by."""
        for modname, module in list(sys.modules.items()):
            if modname != "tatekit" and not modname.startswith("tatekit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            self._patches.append((value, key, fn))
                            value[key] = wrapper

    def patch_method(self, cls, attr, make_wrapper):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            self._set(cls, attr, make_wrapper(raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        """Wrap every layer of tatekit (imported already)."""
        from tatekit import errors, fields, linalg

        probes = self._probes()
        for layer, methods in SPAN_LAYERS.items():
            module = sys.modules["tatekit." + layer]
            for fname, fn in list(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = "%s.%s" % (layer, fname)
                self.patch_function(fn, self.span_wrapper(fn, name, layer, probes.get(name)))
            for spec in methods:
                cls_name, attr = spec.split(".")
                name = "%s.%s" % (layer, spec)
                self.patch_method(
                    getattr(module, cls_name),
                    attr,
                    lambda fn, name=name, layer=layer: self.span_wrapper(fn, name, layer, probes.get(name)),
                )
        self._install_counters(fields, linalg, errors)

    def _install_counters(self, fields, linalg, errors):
        q, fp = self.cell("fields.mul.q"), self.cell("fields.mul.fp")
        rationals = fields.RATIONALS

        def make_mul(fn):
            def mul(self, other):
                if self.ctx.kind == rationals:
                    q[0] += 1
                else:
                    fp[0] += 1
                return fn(self, other)

            return mul

        self.patch_method(fields.Scalar, "__mul__", make_mul)
        for attr, key in (
            ("__add__", "fields.add"),
            ("__sub__", "fields.add"),
            ("inverse", "fields.inverse"),
        ):
            self.patch_method(fields.Scalar, attr, lambda fn, key=key: self.count_wrapper(fn, key))
        self.patch_method(fields.FieldCtx, "scalar", lambda fn: self.count_wrapper(fn, "fields.scalar"))
        self.patch_method(fields.FieldCtx, "__eq__", lambda fn: self.count_wrapper(fn, "fields.ctx_eq"))
        self.patch_method(linalg.Matrix, "__init__", lambda fn: self.count_wrapper(fn, "linalg.matrix_init"))
        self.patch_method(
            errors.InsufficientPrecision, "__init__", lambda fn: self.count_wrapper(fn, "laurent.precision_errors")
        )

    def _probes(self):
        """Span name -> callable(args, result) that counts what a call did."""
        cells = self.cell("linalg.rref.cells")
        max_cols = self.cell("linalg.rref.max_cols")
        inputs, canonical = self.cell("linalg.from_rows.inputs"), self.cell("linalg.from_rows.already_rref")
        act_kind = {"mult": self.cell("lattice.act.mult"), "gl": self.cell("lattice.act.gl")}
        inits, tightened = self.cell("lattice.init"), self.cell("lattice.tightened")
        max_dim = self.cell("lattice.max_window_dim")
        entries = self.cell("index_map.family_entries")

        def rref(args, result):
            m = args[0]
            cells[0] += m.rows * m.cols
            max_cols[0] = max(max_cols[0], m.cols)

        def from_rows(args, result):
            # Already canonical: the nonzero input rows are the RREF basis.
            # Values only: comparing Scalars would count ctx_eq calls.
            rows = [[getattr(x, "value", x) for x in row] for row in args[3]]
            flat = [x for row in rows if any(row) for x in row]
            inputs[0] += 1
            if flat == [x.value for x in result.basis.entries]:
                canonical[0] += 1

        def act(args, result):
            act_kind[args[0].kind][0] += 1

        def lattice_init(args, result):
            lat, space, a, b = args[:4]
            inits[0] += 1
            tightened[0] += (lat.a, lat.b) != (a, b)
            max_dim[0] = max(max_dim[0], space.rank * (a + b))

        def build_family(args, result):
            entries[0] += len(result.entries)

        return {
            "linalg.rref": rref,
            "linalg.Subspace.from_rows": from_rows,
            "lattice.act": act,
            "lattice.Lattice.__init__": lattice_init,
            "index_map.build_family": build_family,
        }

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-name and per-layer totals, in milliseconds.

        ``calls`` counts every span; ``ms`` sums the spans with no enclosing
        span of the same name (recursion counts once); ``self_ms`` is a
        span's time minus the time its child spans cover.
        """
        n = len(self.span_start)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        per_name = {
            name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names
        }
        per_layer = {layer: {"busy_ms": 0.0, "self_ms": 0.0} for layer in self.layers}
        for i in range(n):
            nid = self.span_name[i]
            rec = per_name[self.names[nid]]
            lay = per_layer[self.layers[self.name_layer[nid]]]
            own = dur[i] - child[i]
            rec["calls"] += 1
            rec["self_ms"] += own * 1e3
            lay["self_ms"] += own * 1e3
            if self.span_outer[i] & 1:
                rec["ms"] += dur[i] * 1e3
            if self.span_outer[i] & 2:
                lay["busy_ms"] += dur[i] * 1e3
        return {
            "spans": n,
            "names": per_name,
            "layers": per_layer,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "failures": dict(self.failures),
        }

    def write_spans(self, path):
        """Gzipped CSV, one line per span: op,name,parent,start_s,end_s;
        parent is the line number of the enclosing span, counted from 0."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op,name,parent,start_s,end_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    "%d,%s,%d,%.9f,%.9f\n"
                    % (
                        self.span_op[i],
                        self.names[self.span_name[i]],
                        self.span_parent[i],
                        self.span_start[i],
                        self.span_end[i],
                    )
                )
