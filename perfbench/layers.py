"""Layer spans recorded from outside the program.

A Tracer wraps every public function of every loaded `dplab` module at each
binding through which dplab code calls it (the defining module's own globals
included), plus `scipy.optimize.linprog` where dplab binds it and scipy's
entry into HiGHS. Bindings are found by scanning the loaded modules, so a
call site that moves to another module stays measured; a function that no
longer exists simply records nothing. Spans are kept in memory as per-function
counters: calls and self time (duration minus the time of recorded child
spans). The wrappers' own bookkeeping is charged to no span; the tracer sums
it separately (each wrapper's whole duration minus the call it times) as its
overhead.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np
from scipy import sparse

LINPROG = "scipy.optimize.linprog"
HIGHS = "scipy.highs"
HIGHS_BINDING = ("scipy.optimize._linprog_highs", "_highs_wrapper")
UNIVERSALITY = "dplab.tradeoff.universal_encoder_check"
ORACLE = "dplab.tradeoff.constrained_oracle"


def _feed(h, x) -> None:
    if x is None:
        h.update(b"N")
    elif sparse.issparse(x):
        x = x.tocsr()
        h.update(repr(x.shape).encode())
        for part in (x.indptr, x.indices, x.data):
            h.update(np.ascontiguousarray(part).tobytes())
    else:
        a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())


def _nnz(x) -> int:
    if x is None:
        return 0
    if sparse.issparse(x):
        return int(x.nnz)
    return int(np.count_nonzero(np.asarray(x)))


class Tracer:
    """Install with `with tracer:`; read `calls`, `self_s` and the LP counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.lp_problems: set = set()
        self.lp_iterations = 0
        self.lp_max_vars = 0
        self.lp_max_nnz = 0
        self.oracle_keys: set = set()
        self.oracle_in_universality = 0
        self._stack = [0.0]
        self._in_universality = 0
        self._undo: list = []
        self._outer_s = 0.0  # wrappers' whole durations
        self._inner_s = 0.0  # the calls they time

    # -- span bookkeeping --------------------------------------------------

    def _timed(self, key, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            child = stack.pop()
            self._inner_s += t1 - t0
            self.calls[key] += 1
            self.self_s[key] += (t1 - t0) - child

    def _close(self, t_in: float) -> None:
        # the whole wrapper, bookkeeping included, is covered time of the caller
        outer = perf_counter() - t_in
        self._stack[-1] += outer
        self._outer_s += outer

    def _plain(self, key, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            t_in = perf_counter()
            try:
                return self._timed(key, fn, args, kwargs)
            finally:
                self._close(t_in)
        return span

    def _universality(self, key, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            t_in = perf_counter()
            self._in_universality += 1
            try:
                return self._timed(key, fn, args, kwargs)
            finally:
                self._in_universality -= 1
                self._close(t_in)
        return span

    def _oracle(self, key, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t_in = perf_counter()
            if self._in_universality:
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                    labels = {}
                    partition = tuple(labels.setdefault(int(z), len(labels))
                                      for z in bound["enc"].assignment)
                    self.oracle_keys.add((partition, float(bound["p_budget"])))
                    self.oracle_in_universality += 1
                except (TypeError, KeyError, AttributeError):
                    pass
            try:
                return self._timed(key, fn, args, kwargs)
            finally:
                self._close(t_in)
        return span

    def _linprog(self, key, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t_in = perf_counter()
            lp = sig.bind(*args, **kwargs).arguments
            h = hashlib.blake2b(digest_size=16)
            for name in ("c", "A_ub", "b_ub", "A_eq", "b_eq"):
                _feed(h, lp.get(name))
            h.update(repr(lp.get("bounds")).encode())
            self.lp_problems.add(h.digest())
            self.lp_max_vars = max(self.lp_max_vars, int(np.size(lp["c"])))
            self.lp_max_nnz = max(self.lp_max_nnz, _nnz(lp.get("A_ub")) + _nnz(lp.get("A_eq")))
            try:
                res = self._timed(key, fn, args, kwargs)
                self.lp_iterations += int(getattr(res, "nit", 0) or 0)
                return res
            finally:
                self._close(t_in)
        return span

    # -- installation ------------------------------------------------------

    def _targets(self):
        """{original function: wrapper} for every function to trace."""
        from scipy.optimize import linprog

        targets = {linprog: self._linprog(LINPROG, linprog)}
        for mod in self._dplab_modules():
            for obj in vars(mod).values():
                if (isinstance(obj, types.FunctionType) and obj not in targets
                        and obj.__module__.split(".")[0] == "dplab"
                        and not obj.__name__.startswith("_")):
                    key = f"{obj.__module__}.{obj.__qualname__}"
                    make = {UNIVERSALITY: self._universality, ORACLE: self._oracle}.get(key, self._plain)
                    targets[obj] = make(key, obj)
        return targets

    @staticmethod
    def _dplab_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "dplab" or name.startswith("dplab."))]

    def _rebind(self, namespace: dict, name: str, new) -> None:
        self._undo.append((namespace, name, namespace[name]))
        namespace[name] = new

    def __enter__(self):
        targets = self._targets()
        for mod in self._dplab_modules():
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType) and obj in targets:
                    self._rebind(ns, name, targets[obj])
        mod = sys.modules.get(HIGHS_BINDING[0])
        if mod is not None and callable(getattr(mod, HIGHS_BINDING[1], None)):
            ns = vars(mod)
            self._rebind(ns, HIGHS_BINDING[1], self._plain(HIGHS, ns[HIGHS_BINDING[1]]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            ns, name, original = self._undo.pop()
            ns[name] = original
        return False

    # -- per-layer view ----------------------------------------------------

    def _sum(self, table, *keys) -> float:
        return float(sum(table.get(k, 0) for k in keys))

    def _module_self(self, module: str) -> float:
        return float(sum(v for k, v in self.self_s.items() if k.rsplit(".", 1)[0] == module))

    def layer_counts(self) -> dict:
        """Counts and ratios; exact for given inputs."""
        c = self.calls
        lp_calls = c.get(LINPROG, 0)
        return {
            "lp.calls": lp_calls,
            "lp.distinct_ratio": len(self.lp_problems) / lp_calls if lp_calls else 0.0,
            "lp.iterations": self.lp_iterations,
            "lp.vars": self.lp_max_vars,
            "lp.nnz": self.lp_max_nnz,
            "transport.solve_calls": c.get("dplab.transport.solve_transport_lp", 0),
            "tradeoff.oracle_calls": c.get(ORACLE, 0),
            "tradeoff.oracle_useful_ratio": (len(self.oracle_keys) / self.oracle_in_universality
                                             if self.oracle_in_universality else 0.0),
            "tradeoff.evaluate_calls": c.get("dplab.tradeoff.evaluate_point", 0),
            "augmented.solve_calls": c.get("dplab.augmented.solve_augmented", 0),
            "codec.exhaustive_calls": c.get("dplab.codec.exhaustive_optimal_encoder", 0),
            "codec.distortion_calls": c.get("dplab.codec.distortion", 0),
            "distcore.canon_calls": c.get("dplab.distcore.make_distribution", 0),
            "distcore.joint_calls": c.get("dplab.distcore.joint_from_encoder", 0),
            "trace.spans": int(sum(c.values())),
        }

    def layer_times(self) -> dict:
        """Self times in seconds."""
        s = self.self_s
        return {
            "lp.wrapper_s": self._sum(s, LINPROG),
            "lp.highs_s": self._sum(s, HIGHS),
            "transport.solve_self_s": self._sum(s, "dplab.transport.solve_transport_lp"),
            "transport.cost_self_s": self._sum(s, "dplab.transport.w1_exact",
                                               "dplab.transport.w2sq_exact"),
            "transport.closed_form_s": self._sum(s, "dplab.transport.w_1d_closed_form"),
            "tradeoff.oracle_self_s": self._sum(s, ORACLE),
            "tradeoff.evaluate_self_s": self._sum(s, "dplab.tradeoff.evaluate_point"),
            "tradeoff.interpolate_s": self._sum(s, "dplab.tradeoff.interpolate"),
            "tradeoff.universality_self_s": self._sum(s, UNIVERSALITY),
            "augmented.solve_self_s": self._sum(s, "dplab.augmented.solve_augmented"),
            "codec.exhaustive_self_s": self._sum(s, "dplab.codec.exhaustive_optimal_encoder"),
            "codec.lloyd_s": self._sum(s, "dplab.codec.lloyd_train"),
            "codec.distortion_s": self._sum(s, "dplab.codec.distortion"),
            "distcore.canon_s": self._sum(s, "dplab.distcore.make_distribution"),
            "distcore.joint_s": self._sum(s, "dplab.distcore.joint_from_encoder"),
            "checks.self_s": self._module_self("dplab.checks"),
            "cli.self_s": self._module_self("dplab.cli"),
            "trace.overhead_s": self._outer_s - self._inner_s,
        }
