"""Spans and counts around lipimm's public calls, recorded from outside.

The tracer replaces each traced function by a wrapper, in its defining
module and under every name another lipimm module imported it as, so calls
between modules are seen too.  Spans (name, start, end, parent) and counts
stay in memory; ``layer_metrics`` turns one round of them into the
benchmark's per-layer metrics, with self times (a span's duration minus the
time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

MODULES = ("lipimm", "lipimm.shapes", "lipimm.immersion", "lipimm.nets",
           "lipimm.normals", "lipimm.karcher", "lipimm.grassmann",
           "lipimm.tubular", "lipimm.correspond", "lipimm.cli")

# time metric -> spans whose self time it sums
TIME_METRICS = {
    "immersion.check_s": ("immersion.check_r_lambda",),
    "immersion.patch_s": ("immersion.extract_graph_patch",),
    "immersion.component_s": ("immersion.q_component",),
    "immersion.function_check_s": ("immersion.check_r_lambda_function",),
    "nets.build_s": ("nets.build_net", "nets.net_from_points"),
    "nets.cover_s": ("nets.DeltaNet.cover_index", "nets.DeltaNet.z_set"),
    "nets.bounds_s": ("nets.verify_net_bounds",),
    "normals.field_s": ("normals.direction_field",),
    "normals.transfer_s": ("normals.transfer_net",),
    "normals.angle_s": ("normals.angle_bound_check",),
    "normals.lipschitz_s": ("normals.field_lipschitz_check",
                            "normals.n_lipschitz_check"),
    "normals.mean_s": ("normals.NormalMeasureField.mean",),
    "karcher.mean_s": ("karcher.karcher_mean",),
    "grassmann.distance_s": ("grassmann.geodesic_distance",),
    "tubular.probe_s": ("tubular.injectivity_probe", "tubular.inclusion_probe",
                        "tubular.separation_check"),
    "correspond.correspondence_s": ("correspond.build_correspondence",),
    "correspond.graph_system_s": ("correspond.graph_system",),
    "correspond.closeness_s": ("correspond.closeness_report",),
    "correspond.bijectivity_s": ("correspond.verify_bijectivity",),
    "correspond.reparam_s": ("correspond.reparametrized_lipschitz",),
    "correspond.harness_s": ("correspond.convergence_harness",),
    "shapes.make_shape_s": ("shapes.make_shape",),
}

COUNT_METRICS = (
    "immersion.checked_samples", "immersion.patches_built",
    "immersion.patches_rebuilt", "immersion.components", "nets.net_points",
    "normals.means", "karcher.means", "karcher.iterations",
    "grassmann.distances", "grassmann.subspace_validations",
    "tubular.probe_trials", "correspond.fibers",
)

# traced function -> count metrics that add 1 per call
CALL_COUNTS = {
    "immersion.q_component": "immersion.components",
    "normals.NormalMeasureField.mean": "normals.means",
    "karcher.karcher_mean": "karcher.means",
    "grassmann.geodesic_distance": "grassmann.distances",
}


def per_layer_units():
    """Metric name -> unit, in the order the benchmark reports them."""
    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    return units


class Tracer:
    """Wraps lipimm's public calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names = []            # span name per span
        self.starts = []
        self.ends = []
        self.parents = []          # index of the enclosing span, -1 at top
        self.counts = Counter()
        self._stack = []
        self._rules = []           # plane rule of the enclosing check or net
        self._built = set()        # (immersion, sample, r, plane rule) keys
        self._patched = []         # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def begin_round(self):
        """Forget spans, counts and built patches: a round starts cold."""
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = Counter()
        self._built = set()

    def _span(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        metric = CALL_COUNTS.get(name)
        if metric is not None:
            self.counts[metric] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self.starts[idx] = start
            self._stack.pop()

    def _patch_built(self, f, q, r, rule):
        self.counts["immersion.patches_built"] += 1
        key = (id(f), int(q), float(r), rule)
        if key in self._built:
            self.counts["immersion.patches_rebuilt"] += 1
        else:
            self._built.add(key)

    # -- wrappers ------------------------------------------------------------

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    def _check_r_lambda(self, fn):
        @functools.wraps(fn)
        def traced(f, r, lam, plane_rule="tangent", **kwargs):
            ids = kwargs.get("sample_ids")
            ids = range(len(f)) if ids is None else list(ids)
            rule = plane_rule if isinstance(plane_rule, str) else "explicit"
            self.counts["immersion.checked_samples"] += len(ids)
            # curves are solved in one batch without extract_graph_patch;
            # surfaces call it once per sample, and that call counts itself
            batched = f.m == 1 and f.evaluator is not None \
                and f.params is not None
            self._rules.append(rule)
            try:
                out = self._span("immersion.check_r_lambda", fn,
                                 (f, r, lam, plane_rule), kwargs)
            finally:
                self._rules.pop()
            if batched:
                for q in ids:
                    self._patch_built(f, q, r, rule)
            return out
        return traced

    def _extract_graph_patch(self, fn):
        @functools.wraps(fn)
        def traced(f, q, plane, r, *args, **kwargs):
            # lipimm calls it from checks and nets, which set the rule; a
            # direct call names its plane by identity
            rule = self._rules[-1] if self._rules else id(plane)
            out = self._span("immersion.extract_graph_patch", fn,
                             (f, q, plane, r) + args, kwargs)
            self._patch_built(f, q, r, rule)
            return out
        return traced

    def _net_patch(self, fn):
        @functools.wraps(fn)
        def traced(net, j):
            self._rules.append(net.plane_rule)
            try:
                return fn(net, j)
            finally:
                self._rules.pop()
        return traced

    def _traced_net(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            net = self._span(name, fn, args, kwargs)
            self.counts["nets.net_points"] += len(net)
            return net
        return traced

    def _karcher_mean(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            report = self._span("karcher.karcher_mean", fn, args, kwargs)
            self.counts["karcher.iterations"] += int(report.iterations)
            return report
        return traced

    def _probe(self, name, trials_arg, position, default, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if trials_arg in kwargs:
                trials = kwargs[trials_arg]
            elif len(args) > position:
                trials = args[position]
            else:
                trials = default
            self.counts["tubular.probe_trials"] += int(trials)
            return self._span(name, fn, args, kwargs)
        return traced

    def _correspondence(self, fn):
        @functools.wraps(fn)
        def traced(f1, *args, **kwargs):
            self.counts["correspond.fibers"] += len(f1)
            return self._span("correspond.build_correspondence", fn,
                              (f1,) + args, kwargs)
        return traced

    def _subspace_check(self, fn):
        @functools.wraps(fn)
        def traced(subspace):
            self.counts["grassmann.subspace_validations"] += 1
            return fn(subspace)
        return traced

    # -- installation --------------------------------------------------------

    def _functions(self):
        """(module, attribute, wrapper factory) for every traced function."""
        plain = [
            ("lipimm.immersion", "q_component"),
            ("lipimm.immersion", "check_r_lambda_function"),
            ("lipimm.nets", "verify_net_bounds"),
            ("lipimm.normals", "direction_field"),
            ("lipimm.normals", "transfer_net"),
            ("lipimm.normals", "angle_bound_check"),
            ("lipimm.normals", "field_lipschitz_check"),
            ("lipimm.normals", "n_lipschitz_check"),
            ("lipimm.grassmann", "geodesic_distance"),
            ("lipimm.correspond", "graph_system"),
            ("lipimm.correspond", "closeness_report"),
            ("lipimm.correspond", "verify_bijectivity"),
            ("lipimm.correspond", "reparametrized_lipschitz"),
            ("lipimm.correspond", "convergence_harness"),
            ("lipimm.shapes", "make_shape"),
        ]
        out = [(mod, attr, functools.partial(
            self._plain, f"{mod.split('.')[1]}.{attr}")) for mod, attr in plain]
        out += [
            ("lipimm.immersion", "check_r_lambda", self._check_r_lambda),
            ("lipimm.immersion", "extract_graph_patch",
             self._extract_graph_patch),
            ("lipimm.nets", "build_net",
             functools.partial(self._traced_net, "nets.build_net")),
            ("lipimm.nets", "net_from_points",
             functools.partial(self._traced_net, "nets.net_from_points")),
            ("lipimm.karcher", "karcher_mean", self._karcher_mean),
            ("lipimm.tubular", "injectivity_probe", functools.partial(
                self._probe, "tubular.injectivity_probe", "trials", 3, None)),
            ("lipimm.tubular", "inclusion_probe", functools.partial(
                self._probe, "tubular.inclusion_probe", "count", 3, None)),
            ("lipimm.tubular", "separation_check", functools.partial(
                self._probe, "tubular.separation_check", "pairs", 3, 20000)),
            ("lipimm.correspond", "build_correspondence",
             self._correspondence),
        ]
        return out

    def _methods(self):
        """(class, method, wrapper) for every traced method."""
        nets = importlib.import_module("lipimm.nets")
        normals = importlib.import_module("lipimm.normals")
        grassmann = importlib.import_module("lipimm.grassmann")
        return [
            (nets.DeltaNet, "cover_index", functools.partial(
                self._plain, "nets.DeltaNet.cover_index")),
            (nets.DeltaNet, "z_set", functools.partial(
                self._plain, "nets.DeltaNet.z_set")),
            (nets.DeltaNet, "patch", self._net_patch),
            (normals.NormalMeasureField, "mean", functools.partial(
                self._plain, "normals.NormalMeasureField.mean")),
            (grassmann.Subspace, "__post_init__", self._subspace_check),
        ]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(name) for name in MODULES]
        for mod_name, attr, factory in self._functions():
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = factory(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        for cls, attr, factory in self._methods():
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, factory(original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> summed self time of this round's spans."""
        if not self.names:
            return {}
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents)
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        totals = {}
        for name, value in zip(self.names, own.tolist()):
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def layer_metrics(self) -> dict:
        """Every per-layer metric of this round; layers not run read 0."""
        own = self.self_times()
        out = {metric: sum(own.get(span, 0.0) for span in spans)
               for metric, spans in TIME_METRICS.items()}
        out.update({metric: int(self.counts[metric])
                    for metric in COUNT_METRICS})
        return out

    def span_rows(self) -> list:
        """This round's spans as [name, start, end, parent] rows."""
        return [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
