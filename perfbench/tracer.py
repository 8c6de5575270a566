"""Spans and counters recorded around calls into slchyp's public functions.

Tracing lives entirely in the benchmark: `Tracer.install` replaces each
listed function or method by a wrapper in every slchyp namespace that holds
it, and `Tracer.uninstall` puts every original object back.  A span is
(name, start, end, parent, operation id); spans stay in memory in flat
arrays and are written out once, at the end of the run.  Element-level field
operations get counters only: a timed wrapper around millions of cheap calls
would measure the wrapper.
"""

import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name).  Every slchyp function the benchmark calls
# directly is listed, so an operation's own span keeps only benchmark time.
SPANS = [
    ("slchyp.fields", "extension_field", "fields.extension_field"),
    ("slchyp.unipoly", "find_roots", "unipoly.find_roots"),
    ("slchyp.unipoly", "nth_root", "unipoly.nth_root"),
    ("slchyp.unipoly", "UniPoly.pow_mod", "unipoly.pow_mod"),
    ("slchyp.unipoly", "UniPoly.gcd", "unipoly.gcd"),
    ("slchyp.unipoly", "extend_context", "unipoly.extend_context"),
    ("slchyp.normalize.quadric", "normalize_quadric", "normalize.quadric"),
    ("slchyp.normalize.steps", "stage_w2", "normalize.w2"),
    ("slchyp.normalize.steps", "stage_w3", "normalize.w3"),
    ("slchyp.normalize.steps", "stage_w4", "normalize.w4"),
    ("slchyp.normalize.steps", "stage_w5", "normalize.w5"),
    ("slchyp.normalize.steps", "stage_w6", "normalize.w6"),
    ("slchyp.normalize.quartic", "stage_quartic", "normalize.quartic"),
    ("slchyp.normalize.cubiccone", "classify_cubic_cone", "normalize.cubiccone"),
    ("slchyp.normalize.auto", "Automorphism.apply", "normalize.auto.apply"),
    ("slchyp.poly", "TriPoly.__mul__", "poly.mul"),
    ("slchyp.poly", "TriPoly.substitute", "poly.substitute"),
    ("slchyp.poly", "tri_gcd", "poly.tri_gcd"),
    ("slchyp.poly", "is_squarefree", "poly.is_squarefree"),
    ("slchyp.parse", "parse_poly", "parse"),
    ("slchyp.classifier", "classify_mld", "classifier"),
    ("slchyp.classifier", "classify_slc", "classifier"),
    ("slchyp.classifier", "check_conjecture_bounds", "classifier"),
    ("slchyp.toricdiv", "discrepancy", "toricdiv.discrepancy"),
    ("slchyp.frobenius", "fedder_is_fpure", "frobenius.fedder"),
    ("slchyp.jets", "build_jets", "jets.build_jets"),
    ("slchyp.jets", "groebner_basis", "jets.groebner_basis"),
    ("slchyp.jets", "mld_profile", "jets.mld_profile"),
    ("slchyp.cli", "run", "cli.report"),  # renamed cli.verify for `verify`
]
# (module, attribute) wrapped by counter-only wrappers
COUNTERS = [
    ("slchyp.fields", "FieldElement.__mul__"),
    ("slchyp.fields", "FieldElement.inverse"),
    ("slchyp.fields", "FieldContext.__eq__"),
    ("slchyp.jets", "np_reduce"),
    ("slchyp.normalize.auto", "Normalizer.extend"),
]
OP_SPAN = "op"
# the span arrays, in dump order, with their array typecodes
SPAN_ARRAYS = (("name_id", "H"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i"))


def _resolve(module, attr):
    """(owner, name, original) for a module function or a class method."""
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _holders(owner, name, original):
    """Every place the original is reachable by name: the class for a
    method, else each slchyp module namespace that imported the function."""
    if isinstance(owner, type):
        return [(owner, name)]
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "slchyp" or modname.startswith("slchyp.")):
            continue
        for attr, value in vars(mod).items():
            if value is original:
                out.append((mod, attr))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        for field, code in SPAN_ARRAYS:
            setattr(self, field, array(code))
        self.counts = Counter()
        self.ext_degree_max = 1
        self.op_id = -1
        self._stack = [-1]
        self._installed = []

    # -- spans ---------------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, fn):
        tracer = self
        hook = {"unipoly.find_roots": self._count_roots,
                "cli.report": self._name_cli_call}.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(idx)
                tracer.counts[name + ".raised." + type(exc).__name__] += 1
                raise
            tracer.close(idx)
            if hook is not None:
                hook(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_roots(self, idx, args, result):
        self.counts["unipoly.find_roots.roots"] += len(result.roots)

    def _name_cli_call(self, idx, args, result):
        if args[0][:1] == ["verify"]:
            self.name_id[idx] = self._intern("cli.verify")
            if result != 0:
                self.counts["cli.verify.rejected"] += 1

    # -- counters --------------------------------------------------------------

    def _counted(self, attr, fn):
        counts = self.counts
        if attr == "FieldElement.__mul__":
            def wrapper(a, b):
                ctx = a.context
                if ctx.characteristic == 0:
                    counts["fields.mul_q"] += 1
                elif ctx.extension_degree == 1:
                    counts["fields.mul_prime"] += 1
                else:
                    counts["fields.mul_ext"] += 1
                return fn(a, b)
        elif attr == "Normalizer.extend":
            tracer = self

            def wrapper(nz, emb):
                before = nz.context
                fn(nz, emb)
                if nz.context is not before:
                    counts["normalize.extensions"] += 1
                    tracer.ext_degree_max = max(
                        tracer.ext_degree_max, nz.context.extension_degree)
        else:
            key = {
                "FieldElement.inverse": "fields.inverse",
                "FieldContext.__eq__": "fields.ctx_eq",
                "np_reduce": "jets.np_reduce",
            }[attr]

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        plan = SPANS + [(m, a, None) for m, a in COUNTERS]
        for module, attr, span in plan:
            owner, name, original = _resolve(module, attr)
            if span is None:
                wrapper = self._counted(attr, original)
            else:
                wrapper = self._timed(span, original)
            for holder, hname in _holders(owner, name, original):
                self._installed.append((holder, hname, original))
                setattr(holder, hname, wrapper)

    def uninstall(self):
        while self._installed:
            holder, name, original = self._installed.pop()
            setattr(holder, name, original)

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _code in SPAN_ARRAYS:
                getattr(self, field).tofile(fh)


def load_spans(path):
    """Inverse of Tracer.dump: (names, {array name: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in SPAN_ARRAYS:
            arrays[field] = array(code)
            arrays[field].fromfile(fh, header["count"])
    return header["names"], arrays


def self_times(names, name_id, start, end, parent):
    """Per span name: (calls, total self time).

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        par = parent[i]
        if par >= 0:
            child[par] += end[i] - start[i]
    calls = Counter()
    selfs = Counter()
    for i in range(n):
        key = names[name_id[i]]
        calls[key] += 1
        selfs[key] += (end[i] - start[i]) - child[i]
    return calls, selfs
