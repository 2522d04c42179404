"""Spans and counters around anonrelay's layer boundaries, installed from
outside the package.

Each layer is one package module. `install` wraps the module's public
functions, plus the private ones another module calls, and rebinds every
name a module imported with `from ... import`, so calls across modules go
through the wrappers too. Spans stay in memory until `write_spans`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np

LAYERS = ("point_process", "relay_core", "analytic", "lp", "network_model",
          "anonymity_opt", "cli")

# Names outside a module's __all__: the ones other modules call, and the
# CLI's file writer, whose calls give cli.bytes_written.
EXTRA = {
    "point_process": ("poisson_epochs",),
    "relay_core": ("_joint_match",),
    "network_model": ("_run_session_sim",),
    "cli": ("_write",),
}


class Tracer:
    """In-memory span store. A span is (name index, parent span, start ns,
    end ns); the parent is -1 at the top level."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self.probe_caches: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (idx, parent, start, clock())
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per function name: span durations minus their children."""
        child = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, (idx, _, start, end) in enumerate(self.spans):
            name = self.names[idx]
            out[name] = out.get(name, 0.0) + (end - start - child[sid]) * 1e-9
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent < 0) * 1e-9

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (idx, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": self.names[idx], "start_ns": start,
                                     "end_ns": end}) + "\n")


# Counters, read from arguments and results at the boundary where the work
# happens. Only leaf matchers count departures, so nested calls never count
# one departure twice.

def _count_match(t, args, kwargs, res):
    t.counters["relay_core.departures"] += len(args[1])
    t.counters["relay_core.matched"] += res.n_matched
    t.counters["relay_core.dropped"] += res.n_dropped
    t.counters["relay_core.dummies"] += int(res.dummy_departures.size)


def _count_joint_match(t, args, kwargs, res):
    t.counters["relay_core.departures"] += len(args[1])
    t.counters["relay_core.matched"] += sum(r.n_matched for r in res.values())
    t.counters["relay_core.dropped"] += sum(r.n_dropped for r in res.values())
    # every per-stream result carries the one shared list of dummies
    t.counters["relay_core.dummies"] += next(
        (int(r.dummy_departures.size) for r in res.values()), 0)


def _count_epochs(t, args, kwargs, res):
    t.counters["point_process.epochs"] += int(res.size)


def _count_walk(t, args, kwargs, res):
    t.counters["relay_core.walk_steps"] += res.steps


def _count_lp(t, args, kwargs, res):
    t.counters["lp.solves"] += 1


def _count_covert_rate(t, args, kwargs, res):
    t.counters["network_model.covert_rate_calls"] += 1
    t.counters["network_model.simulated_lookups"] += res.mode == "simulated"


def _count_session_sim(t, args, kwargs, res):
    t.counters["network_model.cascade_sims"] += 1


def _count_model(t, args, kwargs, res):
    t.counters["anonymity_opt.model_cells"] += int(np.isfinite(res.d).sum())
    t.counters["anonymity_opt.simulated_cells"] += res.metadata["simulated_entries"]


def _count_ba(t, args, kwargs, res):
    t.counters["anonymity_opt.ba_probes"] += res.iterations
    cache = kwargs.get("probe_cache")
    if cache is not None:
        t.probe_caches[id(cache)] = cache


def _count_cli_write(t, args, kwargs, res):
    t.counters["cli.bytes_written"] += len(args[1].encode())


HOOKS = {
    "point_process.poisson_epochs": _count_epochs,
    "relay_core.bounded_greedy_match": _count_match,
    "relay_core._joint_match": _count_joint_match,
    "relay_core.random_walk_oracle": _count_walk,
    "lp.solve_packing_lp": _count_lp,
    "network_model.covert_sum_rate": _count_covert_rate,
    "network_model._run_session_sim": _count_session_sim,
    "anonymity_opt.build_distortion_model": _count_model,
    "anonymity_opt.blahut_arimoto": _count_ba,
    "cli._write": _count_cli_write,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer's functions and rebind every module's references to
    them."""
    modules = {name: importlib.import_module(f"anonrelay.{name}") for name in LAYERS}
    wrapper_of = {}
    for layer, mod in modules.items():
        names = [n for n in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, n))]
        for n in names + list(EXTRA.get(layer, ())):
            fn = getattr(mod, n)
            if fn.__module__ != mod.__name__:
                continue
            full = f"{layer}.{n}"
            wrapper_of[fn] = tracer.wrap(full, fn, HOOKS.get(full))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapper_of:
                setattr(mod, attr, wrapper_of[value])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run. Every `_s` figure is self time."""
    st = tracer.self_times()
    c = tracer.counters

    def self_s(*names):
        return sum(st.get(n, 0.0) for n in names)

    def layer_s(layer):
        return sum(v for k, v in st.items() if k.split(".", 1)[0] == layer)

    probes = [p for cache in tracer.probe_caches.values() for p in cache.values()]
    converged = sum(1 for p in probes if p.converged)
    walk_s = self_s("relay_core.random_walk_oracle")
    match_s = layer_s("relay_core") - walk_s
    gen_s = layer_s("point_process")
    lookups = c["network_model.simulated_lookups"]
    sims = c["network_model.cascade_sims"]
    m = {
        "point_process.gen_s": gen_s,
        "point_process.epochs": c["point_process.epochs"],
        "point_process.ns_per_epoch": _ratio(gen_s * 1e9, c["point_process.epochs"]),
        "relay_core.match_s": match_s,
        "relay_core.departures": c["relay_core.departures"],
        "relay_core.s_per_mdep": _ratio(match_s * 1e6, c["relay_core.departures"]),
        "relay_core.matched": c["relay_core.matched"],
        "relay_core.dropped": c["relay_core.dropped"],
        "relay_core.dummies": c["relay_core.dummies"],
        "relay_core.walk_s": walk_s,
        "relay_core.walk_steps": c["relay_core.walk_steps"],
        "relay_core.s_per_mstep": _ratio(walk_s * 1e6, c["relay_core.walk_steps"]),
        "analytic.s": layer_s("analytic"),
        "lp.solves": c["lp.solves"],
        "lp.solve_s": layer_s("lp"),
        "network_model.covert_rate_calls": c["network_model.covert_rate_calls"],
        "network_model.covert_rate_s": self_s("network_model.covert_sum_rate"),
        "network_model.observe_s": self_s("network_model.observe",
                                          "network_model.observe_single"),
        "network_model.session_sim_s": self_s("network_model._run_session_sim",
                                              "network_model.simulate_session"),
        "network_model.cascade_sims": sims,
        "network_model.cascade_hit_ratio": _ratio(lookups - sims, lookups),
        "anonymity_opt.ba_s": self_s("anonymity_opt.blahut_arimoto"),
        "anonymity_opt.ba_probes": c["anonymity_opt.ba_probes"],
        "anonymity_opt.ba_unconverged": len(probes) - converged,
        "anonymity_opt.ba_converged_ratio": _ratio(converged, len(probes)),
        "anonymity_opt.ba_max_gap": max((p.gap for p in probes), default=0.0),
        "anonymity_opt.model_build_s": self_s("anonymity_opt.build_distortion_model"),
        "anonymity_opt.model_cells": c["anonymity_opt.model_cells"],
        "anonymity_opt.simulated_cells": c["anonymity_opt.simulated_cells"],
        "anonymity_opt.det_s": self_s("anonymity_opt.deterministic_points",
                                      "anonymity_opt.best_deterministic",
                                      "anonymity_opt.expected_covert_rate"),
        "anonymity_opt.anonymity_level_s": self_s("anonymity_opt.anonymity_level",
                                                  "anonymity_opt.entropy_bits"),
        "anonymity_opt.hull_s": self_s("anonymity_opt.deterministic_hull",
                                       "anonymity_opt.deterministic_hull_value"),
        "cli.bytes_written": c["cli.bytes_written"],
    }
    # The other layers' totals are already listed above.
    for layer in ("network_model", "anonymity_opt", "cli"):
        m[f"{layer}.self_s"] = layer_s(layer)
    m["trace.outside_s"] = wall_s - tracer.top_level_s()
    return m
