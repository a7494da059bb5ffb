"""The fixture shared by the test modules: ``powers``, the index of every
power of t the recurrence engines take."""

import pytest

from fibquat.sequences import _Recurrence


@pytest.fixture
def powers(monkeypatch):
    """The index of every power the engines take."""
    power = _Recurrence._power
    calls = []
    monkeypatch.setattr(_Recurrence, "_power", lambda self, n: calls.append(n) or power(self, n))
    return calls
