import math
import sys

import numpy as np
import pytest

from lipimm._util import unchecked
from lipimm.errors import DegenerateFrameError
from lipimm.grassmann import (
    GrassmannTangent,
    Subspace,
    complement_frames,
    orthonormalize,
)


def random_subspace(n: int, k: int, rng: np.random.Generator) -> Subspace:
    """Uniform-ish random point of G_{n,k} from a Gaussian matrix."""
    return orthonormalize(rng.standard_normal((n, k)))


def random_tangent(base: Subspace, rng: np.random.Generator,
                   norm: float | None = None) -> GrassmannTangent:
    """Random tangent at ``base``, optionally rescaled to a given norm."""
    raw = rng.standard_normal(base.frame.shape)
    delta = raw - base.frame @ (base.frame.T @ raw)
    if norm is not None:
        d = np.linalg.norm(delta)
        if d < 1e-15:
            raise DegenerateFrameError("degenerate random tangent")
        delta = delta * (norm / d)
    return GrassmannTangent(base, delta)


def complement(plane: Subspace) -> Subspace:
    """Deterministic orthonormal frame of the orthogonal complement."""
    return unchecked(Subspace, frame=complement_frames(plane.frame[None])[0])


def scaled(v: GrassmannTangent, c: float) -> GrassmannTangent:
    """The tangent c v at v's base."""
    return GrassmannTangent(v.base, c * v.delta)


def shuffled_cycle(f, seed):
    """The cycle f with its sample ids permuted: no longer an id cycle."""
    from lipimm.immersion import SampledImmersion

    perm = np.random.default_rng(seed).permutation(len(f))
    new_id = np.argsort(perm)  # sample perm[i] becomes sample i
    neighbors = [new_id[f.neighbors(p)] for p in perm]
    return SampledImmersion(1, f.n, f.positions[perm], neighbors=neighbors,
                            params=f.params[perm], evaluator=f.evaluator)


def csr_rows(pair) -> list:
    """The rows ids[ptr[s]:ptr[s + 1]] of the CSR pair (ids, ptr)."""
    ids, ptr = pair
    return [ids[a:b] for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())]


def csr_of(rows):
    """The CSR pair (ids, ptr) of a list of id arrays, one row each."""
    ptr = np.zeros(len(rows) + 1, dtype=int)
    np.cumsum([len(row) for row in rows], out=ptr[1:])
    return np.concatenate([np.asarray(row, dtype=int) for row in rows]
                          + [np.empty(0, dtype=int)]), ptr


class CallCounter:
    """Counts the calls of the functions it has wrapped and, where a wrap
    is given ``params``, the sum of ``params(*args)`` over its calls."""

    def __init__(self):
        self.calls = 0
        self.params = 0

    def wrap(self, fn, params=None):
        def counting(*args, **kwargs):
            self.calls += 1
            if params is not None:
                self.params += params(*args)
            return fn(*args, **kwargs)
        return counting


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Counter of the ``point``, ``jacobian`` and ``point_jacobian`` calls
    of an evaluator and of the parameters they evaluate:
    ``counter = evaluator_calls(ev)``, then read ``counter.calls`` and
    ``counter.params``."""
    def instrument(ev):
        counter = CallCounter()

        def params(t):  # a surface parameter is a pair
            return np.size(t) // ev.m
        for name in ("point", "jacobian", "point_jacobian"):
            monkeypatch.setattr(ev, name, counter.wrap(getattr(ev, name),
                                                       params))
        return counter
    return instrument


@pytest.fixture
def per_call(monkeypatch):
    """``per_call(module, name, counter)`` records, per call of
    ``module.name``, how far it advanced ``counter.calls``; returns the list."""
    def instrument(module, name, counter):
        fn, steps = getattr(module, name), []

        def recording(*args, **kwargs):
            before = counter.calls
            out = fn(*args, **kwargs)
            steps.append(counter.calls - before)
            return out
        monkeypatch.setattr(module, name, recording)
        return steps
    return instrument


@pytest.fixture
def lipimm_calls(monkeypatch):
    """``counter = lipimm_calls(fn)`` counts the calls of the lipimm
    function ``fn`` under every name a lipimm module holds it by."""
    def instrument(fn):
        counter = CallCounter()
        counting = counter.wrap(fn)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "lipimm":
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
        return counter
    return instrument


@pytest.fixture
def angle_calls_per_means(lipimm_calls, per_call):
    """The calls of ``grassmann.principal_angles_all`` made in each
    ``NormalMeasureField.means`` call: a list with one entry per call."""
    from lipimm import grassmann
    from lipimm.normals import NormalMeasureField

    counter = lipimm_calls(grassmann.principal_angles_all)
    return per_call(NormalMeasureField, "means", counter)


@pytest.fixture(scope="session")
def gapped_circle():
    """``gapped_circle(samples, gap, scale=1.0)``: the circle of radius
    ``scale`` with its angles (pi - gap/2, pi + gap/2) skipped.  The
    parameter runs at a rate 1 - gap/(2 pi) and jumps the gap at pi."""
    from lipimm.immersion import SampledImmersion
    from lipimm.shapes import Evaluator

    def make(samples, gap, scale=1.0):
        rate = 1.0 - gap / (2 * math.pi)

        def point_velocity(t):
            t = np.mod(t, 2 * math.pi)
            a = rate * t + gap * (t >= math.pi)
            cos, sin = np.cos(a), np.sin(a)
            return (scale * np.stack([cos, sin], axis=-1),
                    scale * rate * np.stack([-sin, cos], axis=-1))

        ev = Evaluator(2, 1, point_velocity, 2 * math.pi)
        params = np.arange(samples) * (2 * math.pi / samples)
        return SampledImmersion(
            1, 2, ev.point(params), params=params, evaluator=ev,
            neighbors=[((i - 1) % samples, (i + 1) % samples)
                       for i in range(samples)])
    return make
