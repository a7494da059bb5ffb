import pytest

from fibquat import KERNEL_BACKEND, Rational


@pytest.fixture(scope="session", params=[Rational], ids=[KERNEL_BACKEND])
def R(request):
    # the Rational class; test ids name the kernel backend, e.g. test_pow[pure-python]
    return request.param
