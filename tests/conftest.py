"""Fixtures shared by the test modules: ``R``, the Rational class, and
``powers``, the index of every power of t the recurrence engines take."""

import pytest

from fibquat import KERNEL_BACKEND, Rational
from fibquat.sequences import _Recurrence


@pytest.fixture(scope="session", params=[Rational], ids=[KERNEL_BACKEND])
def R(request):
    # the Rational class; test ids name the kernel backend, e.g. test_pow[pure-python]
    return request.param


@pytest.fixture
def powers(monkeypatch):
    """The index of every power the engines take."""
    power = _Recurrence._power
    calls = []
    monkeypatch.setattr(_Recurrence, "_power", lambda self, n: calls.append(n) or power(self, n))
    return calls
