"""Runtime tracing of corealg from the outside.

`Tracer.install()` replaces the public entry points of each corealg module
(module-level functions, public methods, properties and the arithmetic and
construction dunders of its classes) with timing wrappers, and `uninstall()`
puts the originals back.  No program source is changed.

Every wrapped call is counted.  Timing is recorded in two forms:

* a span per call in the span layers: name, module, start, end, parent span
  and case id.  Spans stay in memory until `spans_json()` is written out.
* per-parent aggregates (calls and seconds per module under one parent span)
  for the leaf layers `scalar` and `graph`, which are called millions of
  times, and for span-layer calls that end within FOLD_S with no surviving
  child span.  Folding keeps the span list to the calls that do real work;
  a folded call's own child aggregates move up to its parent.

A leaf call made while another leaf call runs is counted but not timed
again: leaves call no other layer, so the outer call's time holds it.

Self time of a span is its duration minus its child spans and the
aggregates directly under it; a module's self time is the sum of its spans'
self times and its aggregates.

The wrappers' own work lands in those self times: mostly in the caller's,
since a call's bookkeeping runs before its start and after its end are
read.  `install()` first times each wrapper path on a wrapped no-op
(`calibrate()`), and the wrappers count their calls by the module whose
self time holds that cost and time the counter hooks directly, so that
`self_times()` can take the tracing cost back out.
"""

from __future__ import annotations

import dataclasses
import inspect
import statistics
import sys
import weakref
from collections import Counter
from time import perf_counter

MODULES = ("scalar", "graph", "star_algebra", "core_endo", "exel_path",
           "hilbert_module", "uhf_cuntz", "ktheory", "dilation", "cli")
LEAF_MODULES = ("scalar", "graph")

# dunders that carry arithmetic or construction; hashing, truth, length and
# dataclass equality are value semantics rather than entry points
_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__neg__", "__eq__")

FOLD_S = 100e-6
ROOT = -1
# Self time is kept per module and for the benchmark's own case code.
OWNERS = MODULES + ("bench",)
# Wrapper paths: a span-layer call, a leaf call and a call made while a
# leaf call runs (counted only), each called from Python code or, with
# "_c", from the interpreter itself (dunders, constructors, properties);
# and "merge", one child aggregate moved up when a short call folds.
PATHS = ("span", "span_c", "leaf", "leaf_c", "nested", "nested_c", "merge")
CALIBRATION_CALLS = 10000
CALIBRATION_ROUNDS = 9


def _add(dest: dict, module: str, calls: int, seconds: float) -> None:
    acc = dest.get(module)
    if acc is None:
        dest[module] = [calls, seconds]
    else:
        acc[0] += calls
        acc[1] += seconds


def _noop(*args, **kwargs):
    return None


class Tracer:
    """Wraps corealg's modules in place; one instance per traced pass."""

    def __init__(self):
        self.cost = {path: (0.0, 0.0) for path in PATHS}   # (inside, outside) s per call
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []      # [name, module, start, end, parent, case]
        self.agg: dict[int, dict[str, list]] = {}   # parent -> module -> [calls, seconds]
        self.calls: Counter = Counter()  # qualified name -> calls at any depth
        self.errors: Counter = Counter()  # module -> calls that ended by raising
        self.counters: Counter = Counter()
        # wrapped calls per path, keyed by the owner whose self time holds
        # the part of their cost outside the callee's own measured time
        self.entries = {path: dict.fromkeys(OWNERS, 0) for path in PATHS}
        self.hook_s = dict.fromkeys(OWNERS, 0.0)   # counter-hook seconds, same keys
        self.case = None
        self._stack = [ROOT]
        self._current = ["bench"]   # owner of the innermost running span-layer call
        self._in_leaf = [None]      # module of the running leaf call, if any

    # -- spans opened by the benchmark itself ------------------------------------

    def open_case(self, case_id) -> list:
        rec = ["case", "bench", perf_counter(), 0.0, self._stack[-1], case_id]
        self.case = case_id
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def close_case(self, rec: list) -> None:
        rec[3] = perf_counter()
        self._stack.pop()
        self.case = None

    # -- wrappers -------------------------------------------------------------------

    def _span_wrapper(self, fn, module: str, name: str, before=None, after=None, via_c=False):
        spans, stack, agg = self.spans, self._stack, self.agg
        calls, errors, in_leaf, current = self.calls, self.errors, self._in_leaf, self._current
        suffix = "_c" if via_c else ""
        by_span, by_nested = self.entries["span" + suffix], self.entries["nested" + suffix]
        by_merge, hook_s = self.entries["merge"], self.hook_s
        tracer = self

        def traced(*args, **kwargs):
            calls[name] += 1
            if in_leaf[0]:
                by_nested[in_leaf[0]] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[module] += 1
                    raise
            caller = current[0]
            by_span[caller] += 1
            note = None
            if before is not None:
                h0 = perf_counter()
                note = before(args)
                hook_s[caller] += perf_counter() - h0
            parent = stack[-1]
            rec = [name, module, 0.0, 0.0, parent, tracer.case]
            spans.append(rec)
            idx = len(spans) - 1
            stack.append(idx)
            current[0] = module
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end = perf_counter()
                rec[3] = end
                current[0] = caller
                stack.pop()
                own = end - rec[2]
                if own < FOLD_S and len(spans) - 1 == idx:
                    spans.pop()
                    dest = agg.get(parent)
                    if dest is None:
                        dest = agg[parent] = {}
                    inner = agg.pop(idx, None)
                    if inner:
                        by_merge[caller] += len(inner)
                        for m, (n, t) in inner.items():
                            _add(dest, m, n, t)
                            own -= t
                    _add(dest, module, 1, own)
            if after is not None:
                h0 = perf_counter()
                after(args, out, note)
                hook_s[caller] += perf_counter() - h0
            return out

        return traced

    def _leaf_wrapper(self, fn, module: str, name: str, before=None, via_c=False):
        stack, agg = self._stack, self.agg
        calls, errors, in_leaf, current = self.calls, self.errors, self._in_leaf, self._current
        suffix = "_c" if via_c else ""
        by_leaf, by_nested = self.entries["leaf" + suffix], self.entries["nested" + suffix]
        hook_s = self.hook_s

        def traced(*args, **kwargs):
            calls[name] += 1
            leaf = in_leaf[0]
            if leaf:
                by_nested[leaf] += 1
                if before is not None:
                    h0 = perf_counter()
                    before(args)
                    hook_s[leaf] += perf_counter() - h0
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[module] += 1
                    raise
            caller = current[0]
            by_leaf[caller] += 1
            if before is not None:
                h0 = perf_counter()
                before(args)
                hook_s[caller] += perf_counter() - h0
            in_leaf[0] = module
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                dt = perf_counter() - t0
                in_leaf[0] = None
                parent = stack[-1]
                dest = agg.get(parent)
                if dest is None:
                    dest = agg[parent] = {}
                _add(dest, module, 1, dt)

        return traced

    # -- cost of the wrappers themselves ----------------------------------------------

    def calibrate(self) -> dict[str, tuple[float, float]]:
        """Time each wrapper path on a wrapped no-op against the bare no-op,
        CALIBRATION_CALLS calls a round, and keep the median of
        CALIBRATION_ROUNDS rounds: per call, the seconds inside the
        callee's measured time and the seconds outside it.  The "_c" paths
        are timed as a class's __init__, a nested call inside a leaf call
        (so all of its cost is inside that call), and a merge as a short
        span call with one leaf call inside, less those two calls' costs."""
        span = self._span_wrapper(_noop, "star_algebra", "calibration")
        span_c = self._span_wrapper(_noop, "star_algebra", "calibration", via_c=True)
        leaf = self._leaf_wrapper(_noop, "scalar", "calibration")
        leaf_c = self._leaf_wrapper(_noop, "scalar", "calibration", via_c=True)

        def probe(init):
            return type("Probe", (), {"__init__": init})

        def calls_leaf():
            leaf()

        def calls_noop():
            _noop()

        probes = {   # path -> (wrapped, bare, leaf module running around the calls)
            "span": (span, _noop, None),
            "span_c": (probe(span_c), probe(_noop), None),
            "leaf": (leaf, _noop, None),
            "leaf_c": (probe(leaf_c), probe(_noop), None),
            "nested": (leaf, _noop, "scalar"),
            "nested_c": (probe(leaf_c), probe(_noop), "scalar"),
            "merge": (self._span_wrapper(calls_leaf, "star_algebra", "calibration"),
                      calls_noop, None),
        }
        rounds: dict[str, list[tuple[float, float]]] = {path: [] for path in PATHS}
        n = CALIBRATION_CALLS
        for _ in range(CALIBRATION_ROUNDS):
            got = {}
            for path, (wrapped, bare, leaf_module) in probes.items():
                self._clear()
                t0 = perf_counter()
                for _ in range(n):
                    bare()
                bare_s = perf_counter() - t0
                rec = self.open_case("calibration")
                self._in_leaf[0] = leaf_module
                t0 = perf_counter()
                for _ in range(n):
                    wrapped()
                wrapped_s = perf_counter() - t0
                self._in_leaf[0] = None
                self.close_case(rec)
                measured = sum(acc[1] for acc in self.agg.get(0, {}).values()) + \
                    sum(r[3] - r[2] for r in self.spans[1:] if r[4] == 0)
                got[path] = ((wrapped_s - bare_s) / n, (measured - bare_s) / n)
            # derived within the round, so that all parts share one machine state
            for path in PATHS:
                total, inside = got[path]
                if path in ("span", "leaf"):
                    inside = min(max(inside, 0.0), total)
                elif path in ("span_c", "leaf_c"):
                    # the code between the clock readings is that of the
                    # Python route; the probe's allocation hides it here
                    inside = min(max(got[path[:-2]][1], 0.0), got[path[:-2]][0])
                elif path == "merge":
                    # all outside the folded call, in its caller
                    total -= got["span"][0] + got["leaf"][0]
                    inside = 0.0
                else:
                    inside = total
                rounds[path].append((inside, total - inside))
        self._clear()
        for path, values in rounds.items():
            self.cost[path] = tuple(max(statistics.median(v[k] for v in values), 0.0)
                                    for k in (0, 1))
        return self.cost

    def _clear(self) -> None:
        """Empty every record in place: wrappers hold the containers."""
        del self.spans[:]
        self.agg.clear()
        for counter in (self.calls, self.errors, self.counters):
            counter.clear()
        for by_owner in self.entries.values():
            for owner in by_owner:
                by_owner[owner] = 0
        for owner in self.hook_s:
            self.hook_s[owner] = 0.0
        self.case = None
        self._stack[:] = [ROOT]
        self._current[0] = "bench"
        self._in_leaf[0] = None

    # -- per-layer counters that need a call's arguments or result --------------------

    def _hooks(self, mods) -> dict:
        """(before, after) callbacks keyed by qualified name.  They use the
        unwrapped functions, so they add nothing to the call counts."""
        c = self.counters
        radical = mods["scalar"].Radical
        is_rational = radical.is_rational
        star = mods["star_algebra"].StarElement
        star_items = star.items
        seen = weakref.WeakSet()

        def rational(x) -> bool:
            return not isinstance(x, radical) or is_rational(x)

        def radical_mul(args):
            c["scalar.mul.calls"] += 1
            if rational(args[0]) and rational(args[1]):
                c["scalar.mul.rational"] += 1

        def star_mul_before(args):
            if isinstance(args[1], star):
                return len(star_items(args[0])) * len(star_items(args[1]))
            return None

        def star_mul_after(args, out, pairs):
            if pairs is not None:
                c["star_algebra.mul.calls"] += 1
                c["star_algebra.mul.pairs"] += pairs
                c["star_algebra.mul.terms_out"] += len(star_items(out))

        def expand_before(args):
            return len(star_items(args[0]))

        def expand_after(args, out, terms_in):
            c["star_algebra.expand.terms_in"] += terms_in
            c["star_algebra.expand.terms_out"] += len(star_items(out))

        def beta_after(args, out, _):
            c["core_endo.beta.terms_out"] += len(star_items(out))

        def u_element_before(args):
            system = args[0]
            if system in seen:
                c["hilbert_module.u_element.repeats"] += 1
            else:
                seen.add(system)

        return {
            "scalar.Radical.__mul__": (radical_mul, None),
            "scalar.Radical.__rmul__": (radical_mul, None),
            "star_algebra.StarElement.__mul__": (star_mul_before, star_mul_after),
            "star_algebra.StarElement.expand_to_level": (expand_before, expand_after),
            "core_endo.CoreEndo.beta": (None, beta_after),
            "hilbert_module.u_element": (u_element_before, None),
        }

    # -- install / uninstall --------------------------------------------------------------

    def _targets(self, mods):
        """Yield (owner, attribute, kind, module, qualified name, raw attribute)."""
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, "function", short, "%s.%s" % (short, attr), obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    for name, raw in list(vars(obj).items()):
                        if name.startswith("_") and name not in _DUNDERS:
                            continue
                        if name == "__eq__" and dataclasses.is_dataclass(obj):
                            continue
                        qual = "%s.%s.%s" % (short, obj.__name__, name)
                        if isinstance(raw, (staticmethod, classmethod)):
                            yield obj, name, type(raw).__name__, short, qual, raw
                        elif isinstance(raw, property) and raw.fget is not None:
                            yield obj, name, "property", short, qual, raw
                        elif inspect.isfunction(raw):
                            yield obj, name, "function", short, qual, raw

    def install(self) -> None:
        self.calibrate()
        mods = {m: sys.modules["corealg." + m] for m in MODULES}
        hooks = self._hooks(mods)
        replaced: dict[int, tuple] = {}
        for owner, attr, kind, short, qual, raw in list(self._targets(mods)):
            fn = raw.__func__ if kind in ("staticmethod", "classmethod") else \
                raw.fget if kind == "property" else raw
            before, after = hooks.get(qual, (None, None))
            # dunders and properties are called by the interpreter itself
            via_c = kind == "property" or attr in _DUNDERS
            if short in LEAF_MODULES:
                wrapped = self._leaf_wrapper(fn, short, qual, before, via_c)
            else:
                wrapped = self._span_wrapper(fn, short, qual, before, after, via_c)
            wrapped.__name__ = fn.__name__
            wrapped.__qualname__ = fn.__qualname__
            wrapped.__doc__ = fn.__doc__
            if kind == "staticmethod":
                new = staticmethod(wrapped)
            elif kind == "classmethod":
                new = classmethod(wrapped)
            elif kind == "property":
                new = property(wrapped, raw.fset, raw.fdel, raw.__doc__)
            else:
                new = wrapped
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
            if owner is mods[short]:
                replaced[id(raw)] = (raw, wrapped)
        # `from .x import f` makes a second binding of f in the importing
        # module, and the package namespace re-exports names too
        for mod in list(mods.values()) + [sys.modules["corealg"]]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------------------------

    def _span_self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for parent, dest in self.agg.items():
            if parent != ROOT:
                covered[parent] += sum(acc[1] for acc in dest.values())
        for rec in self.spans:
            if rec[4] != ROOT:
                covered[rec[4]] += rec[3] - rec[2]
        return [(rec[3] - rec[2]) - covered[i] for i, rec in enumerate(self.spans)]

    def raw_self_times(self) -> dict[str, float]:
        """Self seconds per module as measured, wrapper cost included; the
        benchmark's case spans count as 'bench'."""
        out = dict.fromkeys(OWNERS, 0.0)
        for dest in self.agg.values():
            for module, acc in dest.items():
                out[module] += acc[1]
        for rec, own in zip(self.spans, self._span_self_times()):
            out[rec[1]] += own
        return out

    def wrapper_seconds(self, scale: float = 1.0) -> dict[str, float]:
        """Estimated tracing cost held in each owner's self time: the
        calibrated per-call costs, times `scale`, times the calls that put
        them there, plus the timed counter hooks.  A call's inside cost goes
        to its own module, its outside cost to the owner of the running
        call."""
        timed = dict.fromkeys(OWNERS, 0)   # calls that took the span or leaf path
        for dest in self.agg.values():
            for module, acc in dest.items():
                timed[module] += acc[0]
        for rec in self.spans:
            if rec[1] != "bench":
                timed[rec[1]] += 1
        out = {}
        for owner in OWNERS:
            inside = self.cost["leaf" if owner in LEAF_MODULES else "span"][0]
            calibrated = timed[owner] * inside + sum(
                self.entries[path][owner] * sum(self.cost[path])
                if path.startswith("nested") else
                self.entries[path][owner] * self.cost[path][1] for path in PATHS)
            out[owner] = scale * calibrated + self.hook_s[owner]
        return out

    def wrapper_scale(self, traced_s: float, plain_s: float) -> float:
        """The factor by which the calibrated cost must grow to account for
        all of traced_s - plain_s, the same cases' traced and plain wall
        times.  Wrappers run colder in the program than in the no-op loop,
        so it is above 1."""
        hooks = sum(self.hook_s.values())
        calibrated = sum(self.wrapper_seconds(1.0).values()) - hooks
        return (traced_s - plain_s - hooks) / calibrated if calibrated > 0 else 1.0

    def self_times(self, scale: float = 1.0) -> dict[str, float]:
        """Self seconds per owner with the tracing cost taken out."""
        raw, cost = self.raw_self_times(), self.wrapper_seconds(scale)
        return {owner: raw[owner] - cost[owner] for owner in OWNERS}

    def min_self_time(self) -> float:
        """Smallest self time of any span; negative means broken nesting."""
        return min(self._span_self_times(), default=0.0)

    def case_seconds(self) -> dict:
        """Seconds per case id: the self times of the case's spans plus the
        aggregates under them.  With consistent nesting this is the
        duration of the case's own span."""
        own = self._span_self_times()
        out: dict = {}
        for rec, t in zip(self.spans, own):
            out[rec[5]] = out.get(rec[5], 0.0) + t
        for parent, dest in self.agg.items():
            case = self.spans[parent][5] if parent != ROOT else None
            out[case] = out.get(case, 0.0) + sum(acc[1] for acc in dest.values())
        return out

    def module_calls(self) -> dict[str, int]:
        out = {m: 0 for m in MODULES}
        for name, n in self.calls.items():
            out[name.split(".", 1)[0]] += n
        return out

    def spans_json(self) -> dict:
        return {
            "fields": ["name", "module", "start", "end", "parent", "case"],
            "spans": self.spans,
            "aggregate_fields": ["parent", "module", "calls", "seconds"],
            "aggregates": [[p, m, acc[0], acc[1]]
                           for p, dest in self.agg.items() for m, acc in dest.items()],
        }
