"""Spans around fblic's layer entry points, recorded from outside the package.

``Recorder.install`` replaces module functions and class methods with
timing wrappers; ``remove`` puts the originals back. Each call becomes a
span (name, start, end, parent, thread) kept in memory, with the
thread's CPU clock read at both ends. Span stacks are thread-local because
the dueck chain runs its trials on a thread pool. ``save`` writes the spans
out once, at the end of a traced run, and ``summarize`` turns the saved file
into the per-layer metrics.

Self time is busy time: a span's thread CPU time minus that of its
children on the same thread. Wall time would charge a thread's waits for
the interpreter lock to whichever span it happened to be in, which on the
two-thread dueck chain inflates the spans that call into numpy; summed
over threads, busy time can exceed wall time.

Where the wrappers go, and why they work:

* ``simulate`` calls ``_codec.outer_decode`` and friends as module
  attributes, and ``g_rho_l`` looks ``random_coding_exponent`` up as a
  module global, so patching the module attribute reaches those calls;
* ``InnerCode``, ``TypicalSet`` and ``MatrixHasher`` methods are patched
  on the class;
* ``bounds.search_feasible`` binds ``check_thm1`` as a default argument,
  so theorem-1 evaluations are counted at ``thm1_quantities`` (a
  ``bounds`` span marked in ``info_a``);
* ``simulate._run_trials`` (optional) is wrapped so that each trial is a
  span whose parent is the ``simulate`` call that scheduled it, even on a
  pool thread. Without it, trial work outside the layers below counts as
  ``simulate`` self time only when trials run on the calling thread.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy as np

# (module, attribute, span name); several entry points may share a name
# and are then one layer
TARGETS = (
    ("cli", "main", "cli"),
    ("simulate", "simulate_dueck", "simulate"),
    ("simulate", "simulate_generic", "simulate"),
    ("codec", "outer_decode", "codec.outer_decode"),
    ("codec", "MatrixHasher.digest", "codec.digest"),
    ("codec", "InnerCode.encode", "codec.inner_encode"),
    ("codec", "InnerCode.decode_exact", "codec.inner_decode"),
    ("codec", "InnerCode.decode_ml", "codec.inner_decode"),
    ("codec", "InnerCode.reconstruct", "codec.reconstruct"),
    ("codec", "draw_permutations", "codec.interleave"),
    ("codec", "interleave", "codec.interleave"),
    ("codec", "deinterleave", "codec.interleave"),
    ("codec", "multiplex_inputs", "codec.interleave"),
    ("probkit", "TypicalSet.rank", "probkit.rank"),
    ("probkit", "TypicalSet.unrank", "probkit.unrank"),
    ("probkit", "TypicalSet.contains", "probkit.contains"),
    ("exponent", "random_coding_exponent", "exponent.solve"),
    ("bounds", "ProblemInstance.thm1_quantities", "bounds"),
    ("bounds", "check_thm1", "bounds"),
    ("bounds", "phi_total", "bounds"),
    ("bounds", "search_feasible", "bounds"),
)

SELF_TIME_LAYERS = (
    "cli", "simulate", "codec.outer_decode", "codec.digest", "codec.inner_encode",
    "codec.inner_decode", "codec.reconstruct", "codec.interleave", "probkit.rank",
    "probkit.unrank", "probkit.contains", "exponent.solve", "bounds",
)

_STATUS_CODES = {"ok": 0, "ambiguous": 1, "failed": 2}


def _decode_info(result) -> tuple:
    return _STATUS_CODES.get(result.status, 3), int(result.searched)


class Recorder:
    def __init__(self):
        # (name, start, end, cpu_start, cpu_end, id, parent, thread, info_a, info_b)
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self._query_ids: dict = {}
        self.skipped: list = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs, info=None, parent=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        a = b = -1
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            result = fn(*args, **kwargs)
            if info is not None:
                a, b = info(args, result)
            return result
        finally:
            cpu_end, end = time.thread_time(), time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, cpu_start, cpu_end, sid, parent,
                               threading.get_ident(), a, b))

    def _query_id(self, args, result) -> tuple:
        q = args[0]
        key = (q.rate, q.input_pmf.probs.tobytes(), q.channel.rows.tobytes(),
               q.tolerance, q.max_iters, q.restarts, q.seed)
        return self._query_ids.setdefault(key, len(self._query_ids)), -1

    def _wrap(self, name, fn, info=None):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, info)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_run_trials(self, fn):
        def run_trials(trial_fn, *args, **kwargs):
            stack = getattr(self._local, "stack", None)
            parent = stack[-1] if stack else 0

            def trial(*targs):
                return self._call("simulate", trial_fn, targs, {}, parent=parent)
            return fn(trial, *args, **kwargs)
        run_trials.__wrapped__ = fn
        return run_trials

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, modules: dict) -> None:
        """Wrap every target found in ``modules`` ({short name: module})."""
        infos = {"outer_decode": lambda args, res: _decode_info(res),
                 "random_coding_exponent": self._query_id,
                 "ProblemInstance.thm1_quantities": lambda args, res: (1, -1)}
        for mod_name, path, name in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.skipped.append(f"{mod_name}.{path}")
                continue
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr], infos.get(path)))
        sim = modules["simulate"]
        if "_run_trials" in vars(sim):
            self._patch(sim, "_run_trials", self._wrap_run_trials(sim._run_trials))
        else:
            self.skipped.append("simulate._run_trials")
        if self.skipped:
            print(f"spans: not found, so not traced: {', '.join(self.skipped)}",
                  file=sys.stderr)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 10
        floats = dict(zip(("start", "end", "cpu_start", "cpu_end"), cols[1:5]))
        ints = dict(zip(("id", "parent", "thread", "info_a", "info_b"), cols[5:]))
        np.savez(path, names=np.array(names, dtype=str),
                 name=np.array([index[n] for n in cols[0]], dtype=np.int64),
                 **{k: np.array(v, dtype=float) for k, v in floats.items()},
                 **{k: np.array(v, dtype=np.int64) for k, v in ints.items()})


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _self_times(cpu, ids, parent, thread) -> np.ndarray:
    """Each span's CPU time minus that of its children on the same thread."""
    order = np.argsort(ids)
    at = np.minimum(np.searchsorted(ids[order], parent), len(ids) - 1)
    pidx = order[at]
    child = (ids[pidx] == parent) & (thread[pidx] == thread)
    covered = np.zeros(len(ids))
    np.add.at(covered, pidx[child], cpu[child])
    return cpu - covered


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "fraction"
    if metric.endswith("_per_point"):
        return "1/point"
    return "count"


def summarize(path, ops: int) -> dict:
    """Per-layer metrics of a saved traced run that performed ``ops`` operations."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name, cpu = z["name"], z["cpu_end"] - z["cpu_start"]
        ids, parent, thread = z["id"], z["parent"], z["thread"]
        info_a, info_b = z["info_a"], z["info_b"]
    selfs = _self_times(cpu, ids, parent, thread) if len(ids) else cpu
    code = {n: i for i, n in enumerate(names)}

    def mask(n):
        return name == code[n] if n in code else np.zeros(name.shape, dtype=bool)

    out = {f"{layer}.self_s": float(selfs[mask(layer)].sum()) for layer in SELF_TIME_LAYERS}

    dec = mask("codec.outer_decode")
    calls = int(dec.sum())
    ok = int((info_a[dec] == 0).sum())
    out["codec.outer_decode.calls"] = calls
    out["codec.outer_decode.candidates"] = int(info_b[dec].sum())
    out["codec.outer_decode.ok"] = ok
    out["codec.outer_decode.ambiguous"] = int((info_a[dec] == 1).sum())
    out["codec.outer_decode.failed"] = int((info_a[dec] == 2).sum())
    out["codec.outer_decode.ok_ratio"] = ok / calls if calls else 0.0
    for op in ("rank", "unrank", "contains"):
        out[f"probkit.{op}.calls"] = int(mask(f"probkit.{op}").sum())

    solve = mask("exponent.solve")
    calls = int(solve.sum())
    distinct = len(set(info_a[solve].tolist()))
    out["exponent.solve.calls"] = calls
    out["exponent.solve.distinct"] = distinct
    out["exponent.solve.repeat_share"] = 1.0 - distinct / calls if calls else 0.0

    evals = int((info_a[mask("bounds")] == 1).sum())
    out["bounds.thm1_evals"] = evals
    out["bounds.thm1_evals_per_point"] = evals / ops if ops else 0.0
    return out
