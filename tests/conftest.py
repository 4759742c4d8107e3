"""Shared test settings and fixtures."""

import ctypes

import pytest
from hypothesis import settings

from fockbench import fock

# Property tests draw the same examples on every run and keep no example
# database, so a run is repeatable; no deadline, so a loaded machine
# cannot fail a test on timing alone.
settings.register_profile(
    "fockbench", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("fockbench")


@pytest.fixture
def nonconverging_dbdsdc(monkeypatch):
    """Route the chain SVD to a dbdsdc that returns INFO = 3, its 14th argument."""
    def dbdsdc(*args):
        ctypes.c_int64.from_address(args[13]).value = 3

    monkeypatch.setattr(fock, "bundled_lapack", lambda **routines: [dbdsdc])
    monkeypatch.setattr(fock, "_chain_svd", fock._chain_svd.__wrapped__)
