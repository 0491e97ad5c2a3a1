"""Greedy delta-nets with certified cardinality and multiplicity bounds.

A level-l net is built exactly as the covering argument prescribes: keep
adding the lowest uncovered sample while the delta_l-patches fail to cover;
the added points automatically have pairwise-disjoint delta_{l+1}-patches.
The net certificate checks |Q| <= delta_{l+1}^{-m} vol(M) and the
point-multiplicity bound [3(1+lambda)]^{(l+1)m} over delta_2-patches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InvariantViolationError
from ._util import max_quotient
from .immersion import (
    PLANE_RULES,
    SampledImmersion,
    check_r_lambda,
    delta,
    extract_graph_patch,
    graph_patches,
    passes_stored_check,
    plane_for,
    q_components,
)


@dataclass
class DeltaNet:
    """A delta_l-net: ordered point ids, their planes, and patch membership."""

    f: SampledImmersion
    r: float
    lam: float
    level: int
    points: np.ndarray                      # ordered sample ids q_1..q_s
    planes: list                            # Subspace per net point
    member_sets: list                       # member_sets[j][iota] = ids of U_{delta_iota, q_j}
    plane_rule: str = "tangent"
    _patches: dict = field(default_factory=dict)
    _cover_index: dict = field(default_factory=dict)
    _z_cache: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.points)

    def delta(self, iota: int) -> float:
        return delta(iota, self.r, self.lam)

    def members(self, j: int, iota: int) -> np.ndarray:
        """Sample ids of U_{delta_iota, q_j}; iota ranges over 0..level+1."""
        if not 0 <= iota < len(self.member_sets[j]):
            raise InputError(f"iota {iota} out of range 0..{self.level + 1}")
        return self.member_sets[j][iota]

    def _point(self, j: int) -> int:
        if not 0 <= j < len(self.points):
            raise InputError(f"net index {j} out of range")
        return int(self.points[j])

    def chart_coords(self, j: int, sample_ids) -> np.ndarray:
        """pi . A_j^{-1} . f coordinates of samples in chart j."""
        rel = self.f.positions[sample_ids] - self.f.positions[self._point(j)]
        return rel @ self.planes[j].frame

    def chart_quotient(self, j: int, distances) -> float:
        """``max_quotient`` of d(v_a, v_b) over |x_a - x_b|, for the pairs of
        chart j's delta_3-members in chart coordinates x; ``distances(a, b)``
        gives d for member rows a, b and is not called below two members."""
        ids = self.members(j, 3)
        if len(ids) < 2:
            return 0.0
        x = self.chart_coords(j, ids)
        a, b = np.triu_indices(len(ids), k=1)
        return max_quotient(distances(a, b),
                            np.linalg.norm(x[a] - x[b], axis=1))

    def patch(self, j: int):
        """Graph patch of radius r over planes[j], kept by the net."""
        if j not in self._patches:
            self._patches[j] = extract_graph_patch(self.f, self._point(j),
                                                   self.planes[j], self.r)
        return self._patches[j]

    def patches(self, js=None) -> list:
        """Graph patches at net points js (all by default), read from the
        immersion's patch store: the check's patches where it built them."""
        js = range(len(self.points)) if js is None else js
        return graph_patches(self.f, [self._point(j) for j in js], self.r,
                             self.lam, self.plane_rule)

    def cover_index(self, iota: int) -> list:
        """For every sample p, the net indices j with p in U_{delta_iota, q_j}."""
        if iota not in self._cover_index:
            lists = [[] for _ in range(len(self.f))]
            for j in range(len(self.points)):
                for p in self.member_sets[j][iota]:
                    lists[p].append(j)
            self._cover_index[iota] = [np.asarray(v, dtype=int) for v in lists]
        return self._cover_index[iota]

    def z_set(self, iota: int, j: int) -> np.ndarray:
        """Z_iota(j) = indices k whose delta_iota-patches meet that of j."""
        if not 0 <= iota <= self.level:
            raise InputError(f"iota must lie in 0..{self.level}")
        self._point(j)
        key = (iota, j)
        if key not in self._z_cache:
            cover = self.cover_index(iota)
            hits = {j}
            for p in self.member_sets[j][iota]:
                hits.update(cover[p].tolist())
            self._z_cache[key] = np.asarray(sorted(hits), dtype=int)
        return self._z_cache[key]

    def z_of_point(self, p: int) -> np.ndarray:
        """Net indices k with sample p in U_{delta_2, q_k}."""
        if not 0 <= p < len(self.f):
            raise InputError(f"sample id {p} out of range")
        return self.cover_index(2)[p]

    def to_json(self, *, z_iotas=()) -> str:
        payload = {
            "level": self.level,
            "r": self.r,
            "lambda": self.lam,
            "plane_rule": self.plane_rule,
            "points": [int(p) for p in self.points],
            "z_sets": {
                f"{iota},{j}": [int(k) for k in self.z_set(iota, j)]
                for iota in z_iotas for j in range(len(self.points))
            },
        }
        return json.dumps(payload, sort_keys=True)


def build_net(f: SampledImmersion, r: float, lam: float, level: int,
              plane_rule="tangent", *, verify_immersion: bool = True) -> DeltaNet:
    """Greedy delta_level-net; deterministic (lowest uncovered id first)."""
    if level < 1:
        raise InputError("net level must be >= 1")
    if plane_rule not in PLANE_RULES:  # before it is hashed as a store key
        raise InputError(f"unknown plane rule {plane_rule!r}")
    if verify_immersion and not passes_stored_check(f, r, lam, plane_rule):
        report = check_r_lambda(f, r, lam, plane_rule)
        if not report.passed:
            raise InvariantViolationError(
                f"immersion fails the local-graph check at (r={r}, lambda={lam}): "
                f"worst slope {report.worst_lambda:.6f} at sample {report.worst_sample}")
    stored = None
    if verify_immersion:  # the passing check stored every sample's plane
        stored = graph_patches(f, range(len(f)), r, lam, plane_rule)
    covered = np.zeros(len(f), dtype=bool)
    points = []
    planes = []
    member_sets = []
    while not np.all(covered):
        q = int(np.argmin(covered))  # lowest uncovered sample id
        plane = (plane_for(f, q, plane_rule, r, lam) if stored is None
                 else stored[q].plane)
        points.append(q)
        planes.append(plane)
        member_sets.append(_ladder(f, r, lam, level, q, plane))
        covered[member_sets[-1][level]] = True  # U_{delta_level, q}
        covered[q] = True  # q covers itself even at degenerate resolution

    net = DeltaNet(f, r, lam, level, np.array(points, dtype=int), planes,
                   member_sets, plane_rule)
    _assert_separation(net)
    return net


def net_from_points(f: SampledImmersion, r: float, lam: float, level: int,
                    points, plane_rule="tangent") -> DeltaNet:
    """Rebuild a net from serialized point ids (no greedy pass)."""
    planes = [plane_for(f, int(q), plane_rule, r, lam) for q in points]
    net = _net_on(f, r, lam, level, points, planes, plane_rule)
    _assert_separation(net)
    return net


def _net_on(f: SampledImmersion, r: float, lam: float, level: int, points,
            planes, plane_rule) -> DeltaNet:
    """The net on given points and planes, with U_{delta_iota, q} for
    iota = 0..level+1 at every point; separation is not checked."""
    member_sets = [_ladder(f, r, lam, level, int(q), plane)
                   for q, plane in zip(points, planes)]
    return DeltaNet(f, r, lam, level, np.array(points, dtype=int), planes,
                    member_sets, plane_rule)


def _ladder(f: SampledImmersion, r: float, lam: float, level: int, q: int,
            plane) -> list:
    """U_{delta_iota, q} over ``plane`` for iota = 0..level+1, from one
    traversal."""
    return q_components(f, q, plane,
                        [delta(iota, r, lam) for iota in range(level + 2)])


def _assert_separation(net: DeltaNet):
    """Net points must have pairwise-disjoint delta_{level+1}-patches."""
    owner = np.full(len(net.f), -1, dtype=int)
    for j in range(len(net)):
        for p in net.member_sets[j][net.level + 1]:
            if owner[p] >= 0:
                raise InvariantViolationError(
                    f"net points {owner[p]} and {j} share sample {p} in their "
                    f"delta_{net.level + 1}-patches")
            owner[p] = j


@dataclass
class NetBoundsReport:
    size: int
    size_bound: float
    size_bound_holds: bool
    worst_multiplicity: int
    multiplicity_bound: float
    multiplicity_bound_holds: bool

    def to_dict(self):
        return {"size": self.size, "size_bound": self.size_bound,
                "size_bound_holds": bool(self.size_bound_holds),
                "worst_multiplicity": self.worst_multiplicity,
                "multiplicity_bound": self.multiplicity_bound,
                "multiplicity_bound_holds": bool(self.multiplicity_bound_holds)}


def verify_net_bounds(net: DeltaNet) -> NetBoundsReport:
    """Certify |Q| <= delta_{l+1}^{-m} vol and the multiplicity bound."""
    f = net.f
    size_bound = net.delta(net.level + 1) ** (-f.m) * f.volume
    counts = np.zeros(len(f), dtype=int)
    for j in range(len(net)):
        counts[net.member_sets[j][2]] += 1
    worst = int(np.max(counts))
    mult_bound = (3.0 * (1.0 + net.lam)) ** ((net.level + 1) * f.m)
    return NetBoundsReport(len(net), size_bound, len(net) <= size_bound,
                           worst, mult_bound, worst <= mult_bound)
