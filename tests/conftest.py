"""Shared fixtures: the two reference channels, the cap-power SNR and a
fault injected into the union bound's row kernels."""

import pytest

from uavlink import bep_analysis, load_fixture
from uavlink.scenario import average_snr_db


@pytest.fixture(scope="session")
def case1():
    return load_fixture("case1")


@pytest.fixture(scope="session")
def case2():
    return load_fixture("case2")


@pytest.fixture(scope="session")
def gamma_max(case1):
    """Linear SNR at the 35 dBm power cap (same link budget in both cases)."""
    db = average_snr_db(case1.scenario.p_max_dbm, case1.scenario)
    return 10.0 ** (db / 10.0)


@pytest.fixture
def kernel_fault(monkeypatch):
    """kernel_fault(method, fault) makes a `UnionBound` method's row kernel
    in `bep_analysis._KERNELS` return fault(orders, *outputs), with each
    row's order and the kernel's own outputs, for the rest of the test. The
    method and `union_bound_rows` both read that table."""
    def inject(method, fault):
        kernel, n_out = bep_analysis._KERNELS[method]

        def faulty(ch, *args):
            return fault(ch.terms.orders.take(ch.k), *kernel(ch, *args))
        monkeypatch.setitem(bep_analysis._KERNELS, method, (faulty, n_out))
    return inject
