"""Span tracing of the qlognorm layers, installed from outside the library.

The library is not edited.  Instead, each layer's public functions are
wrapped under the names their callers look them up by: the module-level
names `cli` uses for `dist`, `infer` and `sample` are replaced by proxies
whose wrapped functions record spans, and names such as `infer.q_exp` or
`dist.q_log` are replaced in the calling module's namespace.  Calls a
module makes to its own functions are therefore only traced where the
callee is imported from another layer.

A span is (id, name, start, end, parent, thread id, op id, elems, extra).
Spans are kept in memory during an op and written out after it, outside
the timed region.  `analyse_op` turns one op's spans into wall-attributed
self times: every instant of the op is split evenly among the spans that
are busy at that instant on any thread, so the self times of all spans
plus the uncovered remainder add up to the op's wall time even when the
KS-table pool runs several threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

import numpy as np

# one block of the KS-table pool (infer._simulate_d), run on a pool thread
TABLE_BLOCK = "infer.table_block"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn, elems=None, extra=None, name_of=None):
        """Return fn wrapped in a span.  elems(args, kwargs, result) gives
        the element count, extra(...) a small JSON-able value, and
        name_of(args, kwargs) a span name chosen per call."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread's outermost span hangs under the span the main
            # thread is blocked in
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((
                    sid,
                    name_of(args, kwargs) if name_of else name,
                    t0,
                    t1,
                    parent,
                    threading.get_ident(),
                    tracer.op,
                    elems(args, kwargs, result) if elems else 1,
                    extra(args, kwargs, result) if extra else None,
                ))

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[tuple]:
        out, self.spans = self.spans, []
        return out


class _Proxy:
    """Stands in for a module: overridden names first, the module after."""

    def __init__(self, module, overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _size0(args, kwargs, result):
    return int(np.size(args[0])) if args else 1


def _draws(args, kwargs, result):
    return int(np.size(result))


def _solver_extra(args, kwargs, result):
    if result is None:
        return None
    return [int(result.nfev), float(result.fun)]


def _fit_name(args, kwargs):
    model = kwargs.get("model", args[1] if len(args) > 1 else "q_log_normal")
    return f"infer.fit_mle.{model}"


def install(tracer: Tracer):
    """Patch the caller-side names; return a function that undoes it."""
    from qlognorm import cli, dist, infer, sample, specfun

    saved = []

    def put(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    w = tracer.wrap

    class TracedRngStream(sample.RngStream):
        uniform = w("sample.uniform", sample.RngStream.uniform, elems=_draws)

    quad = w("specfun.quad", dist.integrate.quad)

    put(cli, "main", w("cli.main", cli.main))
    put(cli, "ingest", w("cli.ingest", cli.ingest))
    put(cli, "q_log", w("qalgebra.q_log", cli.q_log, elems=_size0))
    put(cli, "RngStream", TracedRngStream)
    put(cli, "dist", _Proxy(dist, {
        f: w(f"dist.{f}", getattr(dist, f), elems=_size0)
        for f in ("pdf", "cdf", "quantile", "raw_moment", "char_fn")
    }))
    put(cli, "infer", _Proxy(infer, {
        "fit_mle": w("infer.fit_mle", infer.fit_mle, name_of=_fit_name),
        "ks_table_generate": w("infer.ks_table_generate", infer.ks_table_generate),
    }))
    put(cli, "sample", _Proxy(sample, {
        "sample_qlognormal": w("sample.sample_qlognormal", sample.sample_qlognormal),
        "cascade_run": w("sample.cascade_run", sample.cascade_run),
    }))

    put(infer, "dist", _Proxy(dist, {
        "cdf": w("dist.cdf", dist.cdf, elems=_size0),
        "mixture_cdf": w("dist.mixture_cdf", dist.mixture_cdf, elems=_size0),
    }))
    put(infer, "q_exp", w("qalgebra.q_exp", infer.q_exp, elems=_size0))
    put(infer, "RngStream", TracedRngStream)
    put(infer, "_simulate_d", w(TABLE_BLOCK, infer._simulate_d))
    put(infer, "optimize", _Proxy(infer.optimize, {
        "minimize": w("infer.solver", infer.optimize.minimize, extra=_solver_extra),
    }))

    put(sample, "q_exp", w("qalgebra.q_exp", sample.q_exp, elems=_size0))

    put(dist, "q_log", w("qalgebra.q_log", dist.q_log, elems=_size0))
    put(dist, "q_exp", w("qalgebra.q_exp", dist.q_exp, elems=_size0))
    put(dist, "log_pcf_D_neg", w("specfun.log_pcf_D_neg", dist.log_pcf_D_neg))
    put(dist, "integrate", _Proxy(dist.integrate, {"quad": quad}))
    put(specfun, "integrate", _Proxy(specfun.integrate, {"quad": quad}))

    def uninstall():
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

    return uninstall


# ---------------------------------------------------------------------------
# analysis

def _subtract(t0, t1, intervals):
    """[t0, t1) minus the union of intervals, as a list of segments."""
    out = []
    cur = t0
    for a, b in sorted(intervals):
        if b <= cur:
            continue
        if a > cur:
            out.append((cur, min(a, t1)))
        cur = max(cur, b)
        if cur >= t1:
            break
    if cur < t1:
        out.append((cur, t1))
    return out


def attributed_self(spans) -> dict[int, float]:
    """Wall-attributed self time per span id.

    A span is busy where no child (on any thread) is open.  Each instant
    is divided evenly among the spans busy at it.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    events = []
    for s in spans:
        for a, b in _subtract(s[2], s[3], children.get(s[0], ())):
            if b > a:
                events.append((a, 1, s[0]))
                events.append((b, -1, s[0]))
    events.sort(key=lambda e: (e[0], e[1]))
    out = dict.fromkeys((s[0] for s in spans), 0.0)
    active: set[int] = set()
    last = None
    for t, kind, sid in events:
        if active and last is not None and t > last:
            share = (t - last) / len(active)
            for a in active:
                out[a] += share
        last = t
        if kind > 0:
            active.add(sid)
        else:
            active.discard(sid)
    return out


def analyse_op(spans) -> dict:
    """Per-name totals for one op: calls, elems, self (wall-attributed),
    inclusive (self of the span and its descendants, outermost spans of a
    name only), plus the raw spans' extras for the solver."""
    if not spans:
        return {"names": {}, "self_total": 0.0, "threads": {}, "solver": []}
    own = attributed_self(spans)
    by_id = {s[0]: s for s in spans}
    subtree = dict(own)
    for sid in sorted(by_id, reverse=True):  # children open after parents
        parent = by_id[sid][4]
        if parent in subtree:
            subtree[parent] += subtree[sid]

    def has_named_ancestor(s):
        p = by_id.get(s[4])
        while p is not None:
            if p[1] == s[1]:
                return True
            p = by_id.get(p[4])
        return False

    names: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "elems": 0, "self_s": 0.0, "incl_s": 0.0}
    )
    threads = defaultdict(set)
    solver = []
    for s in spans:
        rec = names[s[1]]
        rec["calls"] += 1
        rec["elems"] += s[7]
        rec["self_s"] += own[s[0]]
        if not has_named_ancestor(s):
            rec["incl_s"] += subtree[s[0]]
        threads[s[1]].add(s[5])
        if s[1] == "infer.solver" and s[8] is not None:
            parent = by_id.get(s[4])
            solver.append((parent[0] if parent else 0, s[8][0], s[8][1]))
    return {
        "names": dict(names),
        "self_total": sum(own.values()),
        "threads": {k: len(v) for k, v in threads.items()},
        "solver": solver,
    }
