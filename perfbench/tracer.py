"""Spans around treesym's public functions, installed from outside.

:func:`install` replaces chosen module attributes (and one method) with
wrappers.  The package calls these functions through module attributes
(``po.family_poset``, ``tc.splittings``, ...), so every call crosses a
wrapper.  A wrapper records a span -- metric name, start, end and the
enclosing span -- in flat in-memory arrays; :meth:`Tracer.summary`
turns them into per-metric self time (a span minus its child spans), call
counts and the other counts, once the traced command has finished.

The hottest leaf functions (``weak_leq``, ``beta``, ``in_script_s``) only
count calls: a span around each of their hundreds of thousands of calls
would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

PACKAGE = "treesym"
MODULES = ("trees_core", "posets", "projections", "hopf_algebra",
           "hopf_modules", "series", "cli")

# metric -> (module, attribute); "Class.method" wraps a method.
SPANS = {
    "trees_core.enumerate_family": ("trees_core", "enumerate_family"),
    "trees_core.splittings": ("trees_core", "splittings"),
    "trees_core.restricted_splittings": ("trees_core", "restricted_splittings"),
    "trees_core.graft": ("trees_core", "graft"),
    "trees_core.standardize": ("trees_core", "standardize"),
    "posets.family_poset": ("posets", "family_poset"),
    "posets.mobius": ("posets", "FinitePoset.mobius"),
    "posets.interval_retract_verify": ("posets", "interval_retract_verify"),
    "posets.fiberwise_mobius_verify": ("posets", "fiberwise_mobius_verify"),
    "projections.beta_fiber": ("projections", "beta_fiber"),
    "projections.iota": ("projections", "iota"),
    "hopf_algebra.mul_F": ("hopf_algebra", "mul_F"),
    "hopf_algebra.to_M": ("hopf_algebra", "to_M"),
    "hopf_algebra.to_F": ("hopf_algebra", "to_F"),
    "hopf_algebra.tensor_mul": ("hopf_algebra", "tensor_mul"),
    "hopf_algebra.coaction_rho": ("hopf_algebra", "coaction_rho"),
    "hopf_modules.coinvariant_kernel": ("hopf_modules", "coinvariant_kernel"),
    "hopf_modules.plus_action": ("hopf_modules", "plus_action"),
    "hopf_modules.plus_coaction": ("hopf_modules", "plus_coaction"),
    "hopf_modules.msym_action_F": ("hopf_modules", "msym_action_F"),
    "hopf_modules.kappa": ("hopf_modules", "kappa"),
    "hopf_modules.kappa_inverse": ("hopf_modules", "kappa_inverse"),
    "series.quotient_sign_report": ("series", "quotient_sign_report"),
    "cli.run": ("cli", "run"),
}
GENERATORS = {"trees_core.restricted_splittings"}
COUNTED = {
    "posets.weak_leq": ("posets", "weak_leq"),
    "projections.beta": ("projections", "beta"),
    "hopf_modules.in_script_s": ("hopf_modules", "in_script_s"),
}
# Per-layer self time of the two verify loops is reported as one metric.
SELF_GROUPS = {"posets.verify": ("posets.interval_retract_verify",
                                 "posets.fiberwise_mobius_verify")}
EXTRA_COUNTS = ("posets.family_poset.builds", "posets.order.elements",
                "posets.order.relations", "hopf_algebra.terms_out",
                "hopf_modules.kernel.columns", "hopf_modules.kernel.dim",
                "trees_core.splittings.items",
                "trees_core.restricted_splittings.items", "cache.entries")


# Self times that go into the result line: every workload calls these
# functions.  Where a workload never calls a function, its self time reads
# exactly 0.0 on every run, which cannot be told apart from a stuck clock;
# such self times are printed in the report lines only.  Every call count
# and other count goes into the result line.
RESULT_SELF_TIMES = ("trees_core.enumerate_family", "trees_core.standardize",
                     "posets.family_poset", "posets.mobius", "projections.iota",
                     "cli.run")


def metric_names() -> list:
    """Every per-layer metric a traced pass yields, besides the overhead."""
    names = []
    for metric in SPANS:
        if metric not in sum(SELF_GROUPS.values(), ()):
            names.append(metric + ".self_s")
        names.append(metric + ".calls")
    names += [group + ".self_s" for group in SELF_GROUPS]
    names += [metric + ".calls" for metric in COUNTED]
    return names + list(EXTRA_COUNTS)


def result_names() -> list:
    """The per-layer metrics of the result line, besides the overhead."""
    return [name for name in metric_names() if not name.endswith(".self_s")
            or name[:-len(".self_s")] in RESULT_SELF_TIMES]


def _resolve(module: str, attr: str):
    owner = importlib.import_module("%s.%s" % (PACKAGE, module))
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.calls = {m: 0 for m in list(SPANS) + list(COUNTED)}
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self._posets = {}
        self._cached = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn, metric: str, after=None):
        nid = self.names.index(metric)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _generator_wrapper(self, fn, metric: str):
        """Each resumption is a span; items yielded are counted."""
        nid = self.names.index(metric)
        items = metric + ".items"

        def resume(gen):
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[items] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[metric] += 1
            return resume(fn(*args, **kwargs))
        return wrapper

    def _count_wrapper(self, fn, metric: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- post-call counters -------------------------------------------------

    def _after_family_poset(self, args, poset) -> None:
        if id(poset) not in self._posets:
            self._posets[id(poset)] = poset
            self.counts["posets.family_poset.builds"] += 1
            self.counts["posets.order.elements"] += len(poset.elements)
            self.counts["posets.order.relations"] += sum(
                m.bit_count() for m in poset.up)

    def _after_comb(self, args, comb) -> None:
        self.counts["hopf_algebra.terms_out"] += len(comb.terms)

    def _after_splittings(self, args, parts) -> None:
        self.counts["trees_core.splittings.items"] += len(parts)

    def _after_kernel(self, args, kernel) -> None:
        self.counts["hopf_modules.kernel.columns"] += len(
            self._all_bileveled(args[0]))
        self.counts["hopf_modules.kernel.dim"] += len(kernel)

    # -- installation and results --------------------------------------------

    def install(self) -> None:
        """Wrap every function in ``SPANS`` and ``COUNTED`` in place."""
        for module in MODULES:
            mod = importlib.import_module("%s.%s" % (PACKAGE, module))
            for name in dir(mod):
                obj = getattr(mod, name)
                if not name.startswith("_") and hasattr(obj, "cache_info") \
                        and getattr(obj, "__module__", None) == mod.__name__:
                    self._cached.append(obj)
        self._all_bileveled = importlib.import_module(
            PACKAGE + ".trees_core").all_bileveled
        after = {"posets.family_poset": self._after_family_poset,
                 "trees_core.splittings": self._after_splittings,
                 "hopf_modules.coinvariant_kernel": self._after_kernel}
        for metric in SPANS:
            if metric.startswith("hopf_algebra."):
                after[metric] = self._after_comb
        wrapped_of = {}
        for metric, (module, attr) in SPANS.items():
            owner, name = _resolve(module, attr)
            fn = getattr(owner, name)
            wrapped_of[fn] = wrapped = (
                self._generator_wrapper(fn, metric) if metric in GENERATORS
                else self._span_wrapper(fn, metric, after.get(metric)))
            setattr(owner, name, wrapped)
        for metric, (module, attr) in COUNTED.items():
            owner, name = _resolve(module, attr)
            fn = getattr(owner, name)
            wrapped_of[fn] = wrapped = self._count_wrapper(fn, metric)
            setattr(owner, name, wrapped)
        # The CLI's map table holds function objects taken at import time.
        cli = importlib.import_module(PACKAGE + ".cli")
        for key, (src, dst, fn) in list(cli.MAP_TABLE.items()):
            if fn in wrapped_of:
                cli.MAP_TABLE[key] = (src, dst, wrapped_of[fn])

    def summary(self) -> dict:
        """Self time per metric, calls, and counts, from the recorded spans."""
        n = len(self.span_start)
        own = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_time = own[:]
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                self_time[p] -= own[i]
        by_name = [0.0] * len(self.names)
        names = self.span_name
        for i in range(n):
            by_name[names[i]] += self_time[i]
        seconds = dict(zip(self.names, by_name))
        out = {}
        for metric in SPANS:
            out[metric + ".self_s"] = seconds[metric]
            out[metric + ".calls"] = self.calls[metric]
        for group, members in SELF_GROUPS.items():
            out[group + ".self_s"] = sum(out.pop(m + ".self_s") for m in members)
        for metric in COUNTED:
            out[metric + ".calls"] = self.calls[metric]
        counts = dict(self.counts)
        counts["cache.entries"] = sum(f.cache_info().currsize for f in self._cached)
        out.update(counts)
        return out
