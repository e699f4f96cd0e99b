import sys

import pytest

from sumsetlab.groups import backend_from_spec

BACKEND_SPECS = ("zd:1", "zd:2", "free:2", "klein", "heis")


@pytest.fixture(params=BACKEND_SPECS)
def any_backend(request):
    return backend_from_spec(request.param)


@pytest.fixture
def z1():
    return backend_from_spec("zd:1")


@pytest.fixture
def z2():
    return backend_from_spec("zd:2")


@pytest.fixture
def free2():
    return backend_from_spec("free:2")


@pytest.fixture
def klein():
    return backend_from_spec("klein")


@pytest.fixture
def heis():
    return backend_from_spec("heis")


@pytest.fixture
def too_long_int():
    """A decimal integer one digit past the limit of Python's int(str)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts decimal strings of any length")
    return "9" * (limit + 1)
