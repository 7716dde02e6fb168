"""Layer spans and operation counters for valknaf, installed from outside.

The program is not edited: `Tracer` replaces each traced function or
method, in every valknaf module that holds a reference to it (so
`cli.split_extensions`, `residuefield.gf_factor`, `monoval.subgroup_index`
are all caught), by a wrapper, and puts the originals back on exit.  A layer
is a valknaf module.

Two modes, each meant for its own pass over the same items:

- "time" wraps the calls in `CALLS` and records one span per call (function,
  item, parent span, start, end) in memory.  `write_spans` writes them out
  at the end.  A layer's self time is the time of its spans minus that of
  their child spans; a function's inclusive time counts only its outermost
  spans, since `reduce_at` and `poly_gcd` nest and recurse.
- "count" wraps `CALLS` and the per-element operations in `ELEMENT_OPS`
  and only counts: calls, exceptions leaving a layer, factors returned,
  fields built, field elements enumerated.  Element operations run
  hundreds of thousands of times per batch, so timing them would swamp the
  self times; they are counted in this pass alone.

Work done by functions that are not wrapped (for instance `Poly.__init__`,
`FunctionField.coerce`, field element arithmetic in the "time" pass) is
charged to the layer of the innermost wrapped caller.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("cli", "problemfile", "localsplit", "inductive", "residuefield",
          "gf", "poly", "funcfield", "ordgroup", "raminv", "monoval")

# (layer, qualified name, call counter, outermost-inclusive timer)
CALLS = (
    ("cli", "main", "cli.calls", None),
    ("problemfile", "parse_problem", "problemfile.parse_calls",
     "problemfile.parse_s"),
    ("localsplit", "split_extensions", "localsplit.split_calls",
     "localsplit.split_s"),
    ("localsplit", "BaseValuation.padic", None, None),
    ("localsplit", "BaseValuation.pi_adic", None, None),
    ("localsplit", "BaseValuation.value_of", None, None),
    ("localsplit", "BaseValuation.shifted_reduce", None, None),
    ("localsplit", "BaseValuation.lift_shifted", None, None),
    ("localsplit", "to_extension_invariants", None, None),
    ("inductive", "phi_expansion", "inductive.expand_calls",
     "inductive.expand_s"),
    ("inductive", "Tower.val", "inductive.val_calls", None),
    ("inductive", "Tower.reduce_at", "inductive.reduce_calls", None),
    ("inductive", "Tower.lift_at", None, None),
    ("inductive", "Tower.canonical_exps", None, None),
    ("inductive", "Tower.normalize_exps", None, None),
    ("inductive", "Tower.augment", "inductive.augment_calls", None),
    ("inductive", "Tower.lift_key", "inductive.lift_key_calls", None),
    ("residuefield", "factor_over", "residuefield.factor_calls",
     "residuefield.factor_s"),
    ("residuefield", "extend_residue", "residuefield.extend_calls",
     "residuefield.extend_s"),
    ("gf", "GF", None, None),
    ("gf", "FiniteField.__init__", "gf.fields_built", None),
    ("gf", "embed", None, None),
    ("gf", "factor", None, "gf.factor_s"),
    ("poly", "poly_gcd", "poly.gcd_calls", "poly.gcd_s"),
    ("poly", "Poly.__divmod__", "poly.divmod_calls", None),
    ("poly", "Poly.__add__", None, None),
    ("poly", "Poly.__sub__", None, None),
    ("poly", "Poly.__mul__", None, None),
    ("poly", "Poly.__neg__", None, None),
    ("poly", "Poly.__pow__", None, None),
    ("poly", "Poly.monic", None, None),
    ("poly", "Poly.derivative", None, None),
    ("poly", "Poly.map_coeffs", None, None),
    ("poly", "Poly.__call__", None, None),
    ("funcfield", "RatFunc.__init__", "funcfield.ratfunc_new_calls", None),
    ("funcfield", "RatFunc.__add__", None, None),
    ("funcfield", "RatFunc.__sub__", None, None),
    ("funcfield", "RatFunc.__mul__", None, None),
    ("funcfield", "RatFunc.__neg__", None, None),
    ("funcfield", "RatFunc.__truediv__", None, None),
    ("funcfield", "RatFunc.__pow__", None, None),
    ("funcfield", "RatFunc.d_dt", None, None),
    ("funcfield", "RatFunc.order_at", "funcfield.order_at_calls", None),
    ("ordgroup", "LexGroup.__init__", "ordgroup.lexgroup_new_calls", None),
    ("ordgroup", "subgroup_index", "ordgroup.index_calls",
     "ordgroup.index_s"),
    ("ordgroup", "initial_index", "ordgroup.initial_calls",
     "ordgroup.initial_s"),
    ("ordgroup", "initial_set", None, None),
    ("raminv", "knaf_decide", "raminv.decide_calls", None),
    ("raminv", "validate", "raminv.validate_calls", None),
    ("raminv", "ramification_index", None, None),
    ("monoval", "extend_binomial", "monoval.binomial_calls", None),
    ("monoval", "MonomialValuation.__init__", None, None),
)

# Per-element operations, counted in the "count" pass only.
ELEMENT_OPS = (
    ("gf", "GFElement.__mul__", "gf.mul_calls"),
    ("gf", "GFElement.__add__", "gf.add_calls"),
    ("gf", "GFElement.inverse", "gf.inv_calls"),
    ("gf", "FiniteField.elements", "gf.elements_enumerated"),
)

PER_LAYER = (
    "cli.calls", "cli.self_s",
    "problemfile.parse_calls", "problemfile.parse_s", "problemfile.raised",
    "localsplit.split_calls", "localsplit.split_s", "localsplit.self_s",
    "localsplit.raised", "localsplit.factors_out",
    "inductive.expand_calls", "inductive.expand_s", "inductive.val_calls",
    "inductive.reduce_calls", "inductive.augment_calls",
    "inductive.lift_key_calls", "inductive.self_s",
    "inductive.augment_per_factor",
    "residuefield.factor_calls", "residuefield.factor_s",
    "residuefield.extend_calls", "residuefield.extend_s",
    "residuefield.self_s", "residuefield.elements_per_extend",
    "gf.factor_s", "gf.self_s", "gf.mul_calls", "gf.add_calls",
    "gf.inv_calls", "gf.elements_enumerated", "gf.fields_built",
    "gf.max_field_q",
    "poly.gcd_calls", "poly.gcd_s", "poly.gcd_trivial_ratio",
    "poly.divmod_calls", "poly.self_s",
    "funcfield.ratfunc_new_calls", "funcfield.order_at_calls",
    "funcfield.self_s",
    "ordgroup.lexgroup_new_calls", "ordgroup.index_calls", "ordgroup.index_s",
    "ordgroup.initial_calls", "ordgroup.initial_s", "ordgroup.self_s",
    "raminv.decide_calls", "raminv.validate_calls", "raminv.self_s",
    "raminv.raised",
    "monoval.binomial_calls", "monoval.self_s", "monoval.raised",
    "trace.overhead_ratio",
)


def _modules():
    return [importlib.import_module(f"valknaf.{name}")
            for name in LAYERS + ("fixtures",)] + [importlib.import_module("valknaf")]


def _resolve(layer, qualname):
    """(owner, attribute names, original) for a function or method."""
    module = importlib.import_module(f"valknaf.{layer}")
    if "." not in qualname:
        return module, [qualname], getattr(module, qualname)
    cls_name, attr = qualname.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    # aliases such as __rmul__ = __mul__ share the wrapper
    names = [n for n, v in vars(cls).items() if v is raw]
    return cls, names, raw


class Tracer:
    """Context manager installing "time" or "count" wrappers (None: none)."""

    def __init__(self, mode):
        if mode not in (None, "time", "count"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.item = 0
        self.names = []          # function id -> (layer, qualname)
        self.counters = {}       # function id -> counter name
        self.timers = {}         # function id -> timer name
        self.patches = []        # (owner, name, original value)
        self.stack = []
        self.active = []
        # spans, one entry per traced call in "time" mode
        self.fn, self.parent, self.span_item = array("i"), array("i"), array("i")
        self.start, self.end, self.outer = array("d"), array("d"), array("b")
        # "count" mode
        self.counts = Counter()
        self.max_field_q = 0

    def set_item(self, index: int) -> None:
        self.item = index

    def __enter__(self):
        if self.mode is None:
            return self
        modules = _modules()
        for layer, qualname, counter, timer in CALLS:
            fid = self._register(layer, qualname, counter, timer)
            make = self._timed if self.mode == "time" else self._counted
            self._install(modules, layer, qualname,
                          lambda f, fid=fid, make=make: make(fid, f))
        if self.mode == "count":
            for layer, qualname, counter in ELEMENT_OPS:
                fid = self._register(layer, qualname, counter, None)
                self._install(modules, layer, qualname,
                              lambda f, c=counter: self._element(c, f))
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self.patches):
            setattr(owner, name, value)
        self.patches.clear()
        return False

    def _register(self, layer, qualname, counter, timer) -> int:
        fid = len(self.names)
        self.names.append((layer, qualname))
        self.active.append(0)
        if counter:
            self.counters[fid] = counter
        if timer:
            self.timers[fid] = timer
        return fid

    def _install(self, modules, layer, qualname, make):
        owner, names, raw = _resolve(layer, qualname)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            for name in names:
                self.patches.append((owner, name, raw))
                setattr(owner, name, wrapped)
            return
        wrapped = make(raw)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is raw:
                    self.patches.append((module, name, raw))
                    setattr(module, name, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fid, func):
        fn, parent, span_item = self.fn, self.parent, self.span_item
        start, end, outer = self.start, self.end, self.outer
        stack, active, clock = self.stack, self.active, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            span_item.append(self.item)
            outer.append(active[fid] == 0)
            active[fid] += 1
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[fid] -= 1

        return wrapper

    def _counted(self, fid, func):
        layer = self.names[fid][0]
        counter = self.counters.get(fid)
        counts, stack, active = self.counts, self.stack, self.active
        hook = {"split_extensions": self._factors_out,
                "poly_gcd": self._gcd_result,
                "FiniteField.__init__": self._field_built}.get(self.names[fid][1])

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            stack.append(layer)
            active[fid] += 1
            try:
                result = func(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2] != layer:
                    counts[f"{layer}.raised"] += 1
                raise
            finally:
                stack.pop()
                active[fid] -= 1
            if hook:
                hook(args, result)
            return result

        return wrapper

    def _element(self, counter, func):
        counts = self.counts
        if inspect.isgeneratorfunction(func):
            extend = next(i for i, n in enumerate(self.names)
                          if n[1] == "extend_residue")
            active = self.active

            def generator(*args, **kwargs):
                for value in func(*args, **kwargs):
                    counts[counter] += 1
                    if active[extend]:
                        counts["_extend_elements"] += 1
                    yield value

            return generator

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return func(*args, **kwargs)

        return wrapper

    def _factors_out(self, args, result):
        self.counts["localsplit.factors_out"] += len(result)

    def _gcd_result(self, args, result):
        if result.degree == 0:
            self.counts["_gcd_trivial"] += 1

    def _field_built(self, args, result):
        self.max_field_q = max(self.max_field_q, args[0].q)

    # -- output ------------------------------------------------------------

    def span_times(self):
        """(self seconds per layer, outermost inclusive seconds per timer)."""
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        self_s, timers = Counter(), Counter()
        for i in range(n):
            fid = self.fn[i]
            self_s[self.names[fid][0]] += dur[i] - child[i]
            if self.outer[i] and fid in self.timers:
                timers[self.timers[fid]] += dur[i]
        return self_s, timers

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("item\tspan\tparent\tlayer\tfunction\tstart_s\tend_s\n")
            for i in range(len(self.fn)):
                layer, qualname = self.names[self.fn[i]]
                out.write(f"{self.span_item[i]}\t{i}\t{self.parent[i]}\t{layer}"
                          f"\t{qualname}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def layer_metrics(timed: Tracer, counted: Tracer) -> dict:
    """Every per-layer metric but trace.overhead_ratio, from the two passes."""
    self_s, timers = timed.span_times()
    counts = counted.counts
    out = {name: 0 for name in PER_LAYER if name != "trace.overhead_ratio"}
    for name in out:
        layer, _, metric = name.partition(".")
        if metric == "self_s":
            out[name] = self_s[layer]
        elif name in timers:
            out[name] = timers[name]
        elif name in counts:
            out[name] = counts[name]
    out["gf.max_field_q"] = counted.max_field_q
    factors = counts["localsplit.factors_out"]
    out["inductive.augment_per_factor"] = (
        counts["inductive.augment_calls"] / factors if factors else 0)
    extends = counts["residuefield.extend_calls"]
    out["residuefield.elements_per_extend"] = (
        counts["_extend_elements"] / extends if extends else 0)
    gcds = counts["poly.gcd_calls"]
    out["poly.gcd_trivial_ratio"] = counts["_gcd_trivial"] / gcds if gcds else 0
    return out
