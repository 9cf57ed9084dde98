"""Span tracer that wraps impulsegame's public functions from outside.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces each
traced function in every ``impulsegame`` module namespace that binds it
(``impulsegame.riccati.solve_backward`` and ``impulsegame.cli.solve_backward``
are one object, so both names are wrapped) and replaces traced methods on
their classes; :meth:`Tracer.uninstall` puts the originals back.  A name
the package no longer defines is listed in ``missing`` instead of raising.

Spans live in flat in-memory arrays (name id, start, end, parent span,
job id) and are written out once, by :meth:`Tracer.save`, when the run
ends.  Wrappers hand back the wrapped call's result unchanged, so traced
and untraced runs write the same outputs.
"""

import importlib
import sys
import time
from array import array

import numpy as np

# (layer, module, attribute, class or None).  The span name is
# "<layer>.<attribute>"; a method is replaced on its class.
TRACED = (
    ("cli", "impulsegame.cli", "main", None),
    ("riccati", "impulsegame.riccati", "solve_backward", None),
    ("riccati", "impulsegame.riccati", "q1_at", "CoefficientPath"),
    ("riccati", "impulsegame.riccati", "n1_at", "CoefficientPath"),
    ("riccati", "impulsegame.riccati", "q2_at", "CoefficientPath"),
    ("riccati", "impulsegame.riccati", "n2_at", "CoefficientPath"),
    ("policy", "impulsegame.policy", "build_policy", None),
    ("policy", "impulsegame.policy", "thresholds_at", "ThresholdPolicy"),
    ("policy", "impulsegame.policy", "value_v2", None),
    ("simulate", "impulsegame.simulate", "rollout", None),
    ("simulate", "impulsegame.simulate", "make_rollout_hook", None),
    ("simulate", "impulsegame.simulate", "admissibility_check", None),
    ("verify", "impulsegame.verify", "run_verification", None),
    ("verify", "impulsegame.verify", "brute_force_rv2", None),
    ("verify", "impulsegame.verify", "dp_oracle_v2", None),
    ("model", "impulsegame.model", "intervention_cost", None),
)

LAYERS = ("cli", "riccati", "policy", "simulate", "verify", "model")
SETUP_JOB = -1


class Tracer:
    """Records one span per call of every traced function while installed."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.names = []
        self._name_ids = {}
        self.ids = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.tags = {}         # span index -> cli command
        self.counts = {}       # (counter name, job id) -> total
        self.current_job = SETUP_JOB
        self.missing = []
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    # ----------------------------------------------------------- patching
    def install(self):
        """Wrap every traced name that exists; list the ones that do not."""
        if self._patches:
            return
        self.missing = []
        for module_name in {entry[1] for entry in self.traced}:
            # Import first, so no module binds a wrapper by importing a
            # traced name while the tracer is installed.
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "impulsegame" or name.startswith("impulsegame."))]
        for layer, module_name, attr, cls_name in self.traced:
            module = sys.modules.get(module_name)
            owner = module if cls_name is None else getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                qual = ".".join(p for p in (module_name, cls_name, attr) if p)
                self.missing.append(qual)
                continue
            wrapper = self._wrap(f"{layer}.{attr}", original)
            if cls_name is not None:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------- spans
    def _wrap(self, span_name, fn):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        after = _AFTER.get(span_name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                result = after(self, idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, nid):
        idx = len(self.ids)
        self.ids.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter, n):
        key = (counter, self.current_job)
        self.counts[key] = self.counts.get(key, 0) + n

    # -------------------------------------------------------- reductions
    def arrays(self):
        """Span columns as numpy arrays, with duration and self time."""
        ids = np.asarray(self.ids, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        job = np.asarray(self.job, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {"ids": ids, "start": start, "end": end, "parent": parent,
                "job": job, "dur": dur, "self": dur - child}

    def summary(self, jobs):
        """Totals over the spans of ``jobs``: per span name and per layer.

        Returns ``{"calls": {name: n}, "incl_s": {name: s}, "self_s":
        {layer: s}, "top_s": s, "cli_s": {command: [durations]},
        "counts": {counter: n}}``; ``top_s`` is the time covered by spans
        that have no traced parent.
        """
        a = self.arrays()
        mask = np.isin(a["job"], list(jobs))
        out = {"calls": {}, "incl_s": {}, "self_s": {layer: 0.0 for layer in LAYERS},
               "top_s": float(np.sum(a["dur"][mask & (a["parent"] < 0)])),
               "cli_s": {}, "counts": {}}
        for nid, name in enumerate(self.names):
            sel = mask & (a["ids"] == nid)
            out["calls"][name] = int(np.count_nonzero(sel))
            out["incl_s"][name] = float(np.sum(a["dur"][sel]))
            layer = name.split(".", 1)[0]
            out["self_s"][layer] += float(np.sum(a["self"][sel]))
        for idx, command in self.tags.items():
            if mask[idx]:
                out["cli_s"].setdefault(command, []).append(float(a["dur"][idx]))
        for (counter, job), n in self.counts.items():
            if job in jobs:
                out["counts"][counter] = out["counts"].get(counter, 0) + n
        return out

    def save(self, path):
        """Write every span (and the name table) to a compressed .npz file."""
        a = self.arrays()
        tag_idx = np.fromiter(self.tags.keys(), dtype=np.int64, count=len(self.tags))
        np.savez_compressed(
            path, names=np.array(self.names), name_id=a["ids"], start=a["start"],
            end=a["end"], parent=a["parent"], job=a["job"], cli_span=tag_idx,
            cli_command=np.array(list(self.tags.values()), dtype=str))


def _after_cli_main(tracer, idx, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    tracer.tags[idx] = str(argv[0]) if argv else ""
    return result


def _after_intervention_cost(tracer, idx, args, kwargs, result):
    xi = args[1] if len(args) > 1 else kwargs.get("xi")
    tracer.add("model.intervention_cost.elems", int(np.size(xi)))
    return result


def _after_rollout(tracer, idx, args, kwargs, result):
    tracer.add("simulate.events", len(result.events))
    return result


def _after_make_rollout_hook(tracer, idx, args, kwargs, hook):
    # The returned hook runs rollouts (the value sweep uses it instead of
    # ``rollout``), so its calls are traced as rollouts.
    return tracer._wrap("simulate.rollout", hook)


_AFTER = {
    "cli.main": _after_cli_main,
    "model.intervention_cost": _after_intervention_cost,
    "simulate.rollout": _after_rollout,
    "simulate.make_rollout_hook": _after_make_rollout_hook,
}
