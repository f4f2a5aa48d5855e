"""Outside-in per-layer trace of irsim.

The tracer wraps public irsim functions from outside the package: it swaps
every `irsim.*` module attribute that *is* one of the traced functions (the
scenarios import functions by name, so patching the defining module alone
would miss most calls) and restores them all afterwards.  Each wrapped call
is a span; a span's self time is its duration minus the time covered by the
wrapped calls it made.  Outcome counts are read off the returned objects.

Spans are kept on one stack, so the tracer supports one thread: the
benchmark pins IRS_SIM_THREADS=1.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

from workloads import WORKLOADS

ALL = tuple(WORKLOADS)

# Metric prefix -> (module, attribute path, workloads on which it must record
# calls) of each traced function.  A traced run fails when a function records
# no call on a workload that needs it: that would mean a missed binding.
SPANS = {
    "geometry.build_los_graph": ("irsim.geometry", "build_los_graph", ("ao_hall",)),
    "channels.synthesize_channels": ("irsim.channels", "synthesize_channels",
                                     ("fig13", "fig9_11")),
    "channels.effective_channel": ("irsim.channels", "effective_channel", ("ao_hall",)),
    "channels.effective_channel_affine": ("irsim.channels", "effective_channel_affine",
                                          ("ao_hall",)),
    "channels.cascaded_path_channel": ("irsim.channels", "cascaded_path_channel", ("fig6",)),
    "channels.enumerate_graph_paths": ("irsim.channels", "enumerate_graph_paths", ()),
    "beams.optimize_path_phases": ("irsim.beams", "optimize_path_phases", ("fig6",)),
    "beams.ao_joint_beamforming": ("irsim.beams", "ao_joint_beamforming", ("ao_hall",)),
    "training.build_bs_btt": ("irsim.training", "build_bs_btt", ("fig13",)),
    "training.build_irs_btt": ("irsim.training", "build_irs_btt", ("fig13",)),
    "training.sequential_search": ("irsim.training", "sequential_search", ("fig13",)),
    "training.best_beams_for_path": ("irsim.training", "best_beams_for_path", ("fig13",)),
    "routing.optimal_single_route": ("irsim.routing", "optimal_single_route", ("fig9_11",)),
    "routing.optimal_multi_route": ("irsim.routing", "optimal_multi_route", ("fig9_11",)),
    "routing.unconstrained_multi_route": ("irsim.routing", "unconstrained_multi_route",
                                          ("fig9_11",)),
    "routing.interference_audit": ("irsim.routing", "interference_audit", ("fig9_11",)),
    "experiments.run_trials": ("irsim.experiments", "run_trials", ALL),
    "experiments.ResultTable.to_csv": ("irsim.experiments", "ResultTable.to_csv", ALL),
    "cli.main": ("irsim.cli", "main", ("fig6", "fig13", "fig9_11")),
}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_synthesis(counts, fn, args, kwargs, cs):
    """Links drawn, and complex Gaussian entries drawn (computed: every link
    without a pure-LoS draw costs one Gaussian entry per matrix entry)."""
    scene = cs.scene
    counts["links_drawn"] += len(cs.links)
    for (i, j), link in cs.links.items():
        _, kappa = scene.constants.link_params(i, j, scene.link_class(i, j))
        if link.los_gain is None or not math.isinf(kappa):
            counts["gaussian_entries"] += link.matrix.size


def _count_ao(counts, fn, args, kwargs, sol):
    counts["ao_iterations"] += sol.iterations
    counts["ao_converged"] += int(sol.converged)


def _count_bs_table(counts, fn, args, kwargs, table):
    a = _bound(fn, args, kwargs)
    nxt = a["next_nodes"]
    if nxt is None:                    # the BS sounded every LoS neighbour
        from irsim.training import _bs_neighbors
        nxt = _bs_neighbors(a["scene"])
    counts["rows_kept"] += len(table.rows)
    counts["rows_sounded"] += a["codebook"].size * len(nxt)


def _count_irs_table(counts, fn, args, kwargs, table):
    a = _bound(fn, args, kwargs)
    nxt = a["next_nodes"]
    if nxt is None:                    # the surface sounded every LoS neighbour
        from irsim.training import irs_neighbor_sets
        nxt = irs_neighbor_sets(a["scene"], a["irs"])[1]
    counts["rows_kept"] += len(table.rows)
    # one reference measurement is stored per previous node sounded
    counts["rows_sounded"] += a["codebook"].size * len(table.reference_rss) * len(nxt)


def _count_search(counts, fn, args, kwargs, trained):
    counts["search_evaluations"] += trained.evaluations
    counts["search_sweeps"] += trained.sweeps


def _count_routes(counts, fn, args, kwargs, routes):
    counts["routes_enumerated"] += len(routes)


def _count_trials(counts, fn, args, kwargs, results):
    counts["trials"] += _bound(fn, args, kwargs)["trials"]


OUTCOMES = {
    "channels.synthesize_channels": _count_synthesis,
    "beams.ao_joint_beamforming": _count_ao,
    "training.build_bs_btt": _count_bs_table,
    "training.build_irs_btt": _count_irs_table,
    "training.sequential_search": _count_search,
    "channels.enumerate_graph_paths": _count_routes,
    "experiments.run_trials": _count_trials,
}


def _irsim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "irsim" or name.startswith("irsim."))]


class Tracer:
    """Span and outcome accumulators plus the bindings it has replaced."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0        # time inside spans that have no traced parent
        self._child_s = []            # per open span: time covered by its children
        self._patched = []            # (owner, attribute, original)
        self._wrappers = {}           # id -> wrapper, kept alive so ids stay unique

    def _wrap(self, name, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                child = self._child_s.pop()
                self.calls[name] += 1
                self.self_s[name] += span - child
                if self._child_s:
                    self._child_s[-1] += span
                else:
                    self.top_level_s += span
            if outcome is not None:
                outcome(self.counts, fn, args, kwargs, result)
            return result

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def install(self) -> int:
        """Replace every binding of each traced function; returns how many."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _irsim_modules()
        for name, (module_name, path, _) in SPANS.items():
            owner = sys.modules.get(module_name)
            if owner is None:                    # never imported, so never called
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if owner_path:                       # a method: its class holds the only binding
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return len(self._patched)

    def restore(self) -> None:
        """Put every original back and verify that no wrapper is left."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        owners = _irsim_modules() + [getattr(sys.modules["irsim.experiments"], "ResultTable")]
        left = [f"{getattr(o, '__name__', o)}.{k}" for o in owners
                for k, v in vars(o).items() if id(v) in self._wrappers]
        if left:
            raise RuntimeError(f"traced bindings not restored: {', '.join(left)}")

    def missing_calls(self, workload: str) -> list:
        """Traced functions that recorded no call on a workload that needs them."""
        return [name for name, (_, _, workloads) in SPANS.items()
                if workload in workloads and self.calls[name] == 0]

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics (name -> (value, unit)) of a traced run of wall_s."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        c = self.counts
        ao_calls = self.calls["beams.ao_joint_beamforming"]
        out.update({
            "channels.links_drawn": (c["links_drawn"], "count"),
            "channels.gaussian_entries": (c["gaussian_entries"], "count"),
            "beams.ao_iterations": (c["ao_iterations"], "count"),
            "beams.ao_converged_frac": (c["ao_converged"] / ao_calls if ao_calls else 0.0,
                                        "ratio"),
            "training.table_rows_kept": (c["rows_kept"], "count"),
            "training.table_rows_kept_frac": (
                c["rows_kept"] / c["rows_sounded"] if c["rows_sounded"] else 0.0, "ratio"),
            "training.search_evaluations": (c["search_evaluations"], "count"),
            "training.search_sweeps": (c["search_sweeps"], "count"),
            "routing.routes_enumerated": (c["routes_enumerated"], "count"),
            "experiments.run_trials.trials": (c["trials"], "count"),
            "experiments.unattributed_s": (wall_s - self.top_level_s, "s"),
        })
        return out
