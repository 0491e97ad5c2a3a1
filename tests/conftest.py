import sys

import pytest


class CallCounter:
    """Counts the calls of the functions it has wrapped."""

    def __init__(self):
        self.calls = 0

    def wrap(self, fn):
        def counting(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counting


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Counter of the ``point`` and ``jacobian`` calls of an evaluator:
    ``counter = evaluator_calls(ev)``, then read ``counter.calls``."""
    def instrument(ev):
        counter = CallCounter()
        for name in ("point", "jacobian"):
            monkeypatch.setattr(ev, name, counter.wrap(getattr(ev, name)))
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
def angle_calls_per_means(monkeypatch, per_call):
    """The calls of ``grassmann.principal_angles_all`` made in each
    ``NormalMeasureField.means`` call, under every name a lipimm module
    holds the function by: a list with one entry per call."""
    from lipimm import grassmann
    from lipimm.normals import NormalMeasureField

    counter = CallCounter()
    original = grassmann.principal_angles_all
    counting = counter.wrap(original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lipimm":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return per_call(NormalMeasureField, "means", counter)
