import pytest

from sdr import intrinsic


@pytest.fixture
def first_order_lspca(monkeypatch):
    """Every LSPCA K takes the first-order descent, as a K whose Grassmann
    manifold is larger than ``LSPCA_NEWTON_DIM`` does."""
    monkeypatch.setattr(intrinsic, "LSPCA_NEWTON_DIM", 0)
