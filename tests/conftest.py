"""Shared fixtures."""

import pytest

from pulseg2 import estimate, streams


@pytest.fixture
def set_slice(monkeypatch):
    """``set_slice(n)``: streams read and pairs walk at one `_SLICE` of ``n``
    records for the test.  The simulator keeps its own `_SLICE`: at a small
    one it would draw a few arrival rows a call."""
    def set_(n):
        for module in (streams, estimate):
            monkeypatch.setattr(module, "_SLICE", n)
    return set_
