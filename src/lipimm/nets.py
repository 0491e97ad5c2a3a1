"""Greedy delta-nets with certified cardinality and multiplicity bounds.

A level-l net is built exactly as the covering argument prescribes: keep
adding the lowest uncovered sample while the delta_l-patches fail to cover;
the added points automatically have pairwise-disjoint delta_{l+1}-patches.
The net certificate checks |Q| <= delta_{l+1}^{-m} vol(M) and the
point-multiplicity bound [3(1+lambda)]^{(l+1)m} over delta_2-patches.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ._util import unchecked
from .errors import InputError, InvariantViolationError
from .grassmann import Subspace
from .immersion import (
    PLANE_RULES,
    SampledImmersion,
    _csr_rows,
    _csr_take,
    check_r_lambda,
    component_ladders,
    cycle_runs,
    delta,
    extract_graph_patch,
    graph_patches,
    passes_stored_check,
    planes_for,
    planes_of,
)


@dataclass
class DeltaNet:
    """A delta_l-net: ordered point ids, their frames, and patch membership."""

    f: SampledImmersion
    r: float
    lam: float
    level: int
    points: np.ndarray                      # ordered sample ids q_1..q_s
    frames: np.ndarray                      # (s, n, m) plane frames
    stacks: list                            # stacks[iota] = member_stack(iota)
    plane_rule: str = "tangent"
    _patches: dict = field(default_factory=dict)
    _cover_index: dict = field(default_factory=dict)
    _z_cache: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.points)

    def delta(self, iota: int) -> float:
        return delta(iota, self.r, self.lam)

    def members(self, j: int, iota: int) -> np.ndarray:
        """Sample ids of U_{delta_iota, q_j}, ascending; iota ranges over
        0..level+1.  A view of ``member_stack(iota)``."""
        self._point(j)
        ids, ptr = self.member_stack(iota)
        return ids[ptr[j]:ptr[j + 1]]

    def _point(self, j: int) -> int:
        if not 0 <= j < len(self.points):
            raise InputError(f"net index {j} out of range")
        return int(self.points[j])

    def chart_coords(self, j: int, sample_ids) -> np.ndarray:
        """pi . A_j^{-1} . f coordinates of samples in chart j."""
        rel = self.f.positions[sample_ids] - self.f.positions[self._point(j)]
        return rel @ self.frames[j]

    def member_stack(self, iota: int):
        """The CSR pair (ids, ptr) of U_{delta_iota, q_j} over the charts j:
        chart j's ascending member ids are ids[ptr[j]:ptr[j + 1]]."""
        if not 0 <= iota < len(self.stacks):
            raise InputError(f"iota {iota} out of range 0..{self.level + 1}")
        return self.stacks[iota]

    def chart_quotients(self, js, distances) -> np.ndarray:
        """For every chart j of ``js``, ``max_quotient`` of d(v_a, v_b) over
        |x_a - x_b|, for the pairs a < b of its delta_3-members in chart
        coordinates x; 0.0 below two members.  ``distances(a, b)`` gives d
        for arrays of rows of ``member_stack(3)``.

        Charts of one member count are one stacked pass, which forms each
        chart's coordinates, pairs and quotients as the chart alone would,
        bit for bit.
        """
        js = np.asarray(js, dtype=int)
        ids, offsets = self.member_stack(3)
        counts = np.diff(offsets)[js]
        out = np.zeros(len(js))
        for count in set(counts.tolist()) - {0, 1}:
            at = np.flatnonzero(counts == count)
            rows = offsets[js[at], None] + np.arange(count)
            x = (self.f.positions[ids[rows]]
                 - self.f.positions[self.points[js[at]], None]) \
                @ self.frames[js[at]]
            a, b = np.triu_indices(count, k=1)
            dx = np.linalg.norm(x[:, a] - x[:, b], axis=-1)
            keep = dx > 1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                quotients = np.where(keep, distances(rows[:, a], rows[:, b])
                                     / dx, -np.inf)
            out[at] = np.where(keep.any(axis=1), quotients.max(axis=1), 0.0)
        return out

    def patch(self, j: int):
        """Graph patch of radius r over frames[j], kept by the net."""
        if j not in self._patches:
            q = self._point(j)
            self._patches[j] = extract_graph_patch(
                self.f, q, unchecked(Subspace, frame=self.frames[j]), self.r)
        return self._patches[j]

    def patches(self, js=None):
        """The ``PatchRows`` of the immersion's patch store and the row of
        each net point of js (all by default): the check's patches where it
        built them."""
        js = range(len(self.points)) if js is None else js
        return graph_patches(self.f, [self._point(j) for j in js], self.r,
                             self.lam, self.plane_rule)

    def cover_index(self, iota: int):
        """The inverse of ``member_stack(iota)``: the CSR pair (charts, ptr)
        whose row p holds the j with p in U_{delta_iota, q_j}, ascending,
        from one stable sort of the member ids."""
        if iota not in self._cover_index:
            ids, offsets = self.member_stack(iota)
            owner = np.repeat(np.arange(len(self.points)), np.diff(offsets))
            ptr = np.zeros(len(self.f) + 1, dtype=int)
            np.cumsum(np.bincount(ids, minlength=len(self.f)), out=ptr[1:])
            self._cover_index[iota] = (owner[np.argsort(ids, kind="stable")],
                                       ptr)
        return self._cover_index[iota]

    def z_set(self, iota: int, j: int) -> np.ndarray:
        """Z_iota(j) = indices k whose delta_iota-patches meet that of j."""
        if not 0 <= iota <= self.level:
            raise InputError(f"iota must lie in 0..{self.level}")
        self._point(j)
        key = (iota, j)
        if key not in self._z_cache:
            charts, ptr = self.cover_index(iota)
            at = _csr_rows(ptr, self.members(j, iota))[0]
            self._z_cache[key] = np.unique(np.concatenate([[j], charts[at]]))
        return self._z_cache[key]

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
    ids = range(len(f))
    if verify_immersion:  # the passing check stored every sample's plane
        rows, at = graph_patches(f, ids, r, lam, plane_rule)
        frames = rows.rotation[at, :, :f.m]
    else:
        frames = planes_of(planes_for(f, ids, plane_rule, r, lam))
    radii = [delta(iota, r, lam) for iota in range(level + 2)]
    if f._id_cycle:  # the picks from the runs U_{delta_level, q}, then ladders
        points = _cycle_picks(*cycle_runs(f, np.arange(len(f)), frames,
                                          np.array([radii[level] ** 2]),
                                          radii[level] ** 2), len(f))
        stacks = component_ladders(f, points, frames[points], radii)
    else:
        ladders = component_ladders(f, np.arange(len(f)), frames, radii)
        flat, ptr = ladders[level]  # U_{delta_level, q} of every sample q
        covered = np.zeros(len(f), dtype=bool)
        points = []
        for q in ids:  # the lowest uncovered id: ids below q are covered
            if not covered[q]:
                points.append(q)
                covered[flat[ptr[q]:ptr[q + 1]]] = True
        points = np.array(points, dtype=int)
        stacks = [_csr_take(ladder, points) for ladder in ladders]
    net = DeltaNet(f, r, lam, level, points, frames[points], stacks,
                   plane_rule)
    _assert_separation(net)
    return net


def _cycle_picks(start, length, n):
    """The greedy net points on an id cycle, lowest uncovered id first, from
    each sample's (S, 1) run start .. start + length - 1 mod n.  Runs hold
    their base, so an id past the run of the last point is covered only by
    a run that wraps below id 0; ids from ``end`` on are."""
    start, length = start[:, 0].tolist(), length[:, 0].tolist()
    points, q, end = [], 0, n
    while q < end:
        points.append(q)
        if start[q] < 0:
            end = min(end, n + start[q])
        q = start[q] + length[q]
    return np.array(points, dtype=int)


def net_from_points(f: SampledImmersion, r: float, lam: float, level: int,
                    points, plane_rule="tangent") -> DeltaNet:
    """Rebuild a net from serialized point ids (no greedy pass)."""
    if level < 1:
        raise InputError("net level must be >= 1")
    if not len(points):
        raise InputError("a net needs at least one point")
    frames = planes_of(planes_for(f, points, plane_rule, r, lam))
    net = _net_on(f, r, lam, level, points, frames, plane_rule)
    _assert_separation(net)
    return net


def _net_on(f: SampledImmersion, r: float, lam: float, level: int, points,
            frames, plane_rule) -> DeltaNet:
    """The net on given points and their (s, n, m) plane frames, with
    U_{delta_iota, q} for iota = 0..level+1 at every point from one stacked
    pass; separation is not checked."""
    points = np.array(points, dtype=int)
    stacks = component_ladders(
        f, points, frames, [delta(iota, r, lam) for iota in range(level + 2)])
    return DeltaNet(f, r, lam, level, points, frames, stacks, plane_rule)


def _assert_separation(net: DeltaNet):
    """Net points must have pairwise-disjoint delta_{level+1}-patches."""
    flat, offsets = net.member_stack(net.level + 1)
    owner = np.repeat(np.arange(len(net)), np.diff(offsets))
    first = np.full(len(net.f), len(flat))  # each sample's first position
    np.minimum.at(first, flat, np.arange(len(flat)))
    # the first position, in net order, whose sample an earlier one holds
    for i in np.flatnonzero(first[flat] < np.arange(len(flat)))[:1]:
        raise InvariantViolationError(
            f"net points {owner[first[flat[i]]]} and {owner[i]} share sample "
            f"{flat[i]} in their delta_{net.level + 1}-patches")


@dataclass
class NetBoundsReport:
    size: int
    size_bound: float
    size_bound_holds: bool
    worst_multiplicity: int
    multiplicity_bound: float
    multiplicity_bound_holds: bool

    to_dict = asdict


def verify_net_bounds(net: DeltaNet) -> NetBoundsReport:
    """Certify |Q| <= delta_{l+1}^{-m} vol and the multiplicity bound."""
    f = net.f
    size_bound = net.delta(net.level + 1) ** (-f.m) * f.volume
    worst = int(np.max(np.bincount(net.member_stack(2)[0],
                                   minlength=len(f))))
    mult_bound = (3.0 * (1.0 + net.lam)) ** ((net.level + 1) * f.m)
    return NetBoundsReport(len(net), size_bound, len(net) <= size_bound,
                           worst, mult_bound, worst <= mult_bound)
