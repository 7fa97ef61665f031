"""Periodic resolutions: once a stage repeats an earlier one, later stages
and their lift factors are copies.

Every check diffs `FreeResolution` against `AperiodicResolution`, which
computes every stage, byte for byte: ranks, `to_text`, every factor,
untwisted and twisted lifts, and syzygies past the period.
"""

import numpy as np
import pytest

from modcoh import catalog, fplinalg, resolutions
from modcoh.cohmaps import stable_elements
from modcoh.gmodules import direct_sum, regular_module, trivial_module
from modcoh.groups import prime_factors, sylow
from modcoh.resolutions import FreeResolution, syzygy

from resolution_oracle import AperiodicResolution, full_boundary, to_text

SYLOW_CASES = [(name, p) for name in catalog.names(include_stretch=True)
               for p in prime_factors(catalog.get_group(name).order)]


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_same_stages(res, oracle, length):
    """Ranks, text, kernel pivots and every factor through length agree."""
    oracle.extend_to(length)
    assert res.ranks == oracle.ranks
    assert to_text(res) == to_text(oracle)
    _assert_same_arrays(res._kernel_pivots[:length], oracle._kernel_pivots[:length])
    for k in range(1, length + 1):
        _assert_same_arrays(res._factor(k), oracle._factor(k))


def _identity_lift_start(res):
    """Phi_0 of the identity chain map: e_{k, 1} -> e_{k, 1}."""
    n, r = res._n, res.ranks[0]
    phi = np.zeros((r * n, r), dtype=np.int64)
    phi[np.arange(r) * n, np.arange(r)] = 1
    return phi


def _assert_same_syzygies(M, degrees, monkeypatch):
    want = {}
    with monkeypatch.context() as m:
        m.setattr(resolutions, "FreeResolution", AperiodicResolution)
        for i in degrees:
            want[i] = syzygy(M, i).action
    for i in degrees:
        _assert_same_arrays([syzygy(M, i).action], [want[i]])


@pytest.mark.parametrize("name,p", SYLOW_CASES)
def test_sylow_resolutions_match_the_aperiodic_oracle(name, p, monkeypatch):
    """Through three periods past the first repeated stage, or through
    degree 8 where no stage repeats."""
    G = catalog.get_group(name)
    P = sylow(G, p).as_group()
    M = trivial_module(P, p)
    res = FreeResolution(M, minimal=True).extend_to(8)
    length = 8
    if res._period is not None:
        start, per = res._period
        length = max(length, start + 3 * per + 1)
    res.extend_to(length)
    oracle = AperiodicResolution(M, minimal=True)
    _assert_same_stages(res, oracle, length)
    rng = np.random.default_rng(len(name) * 10 + p)
    for shift in range(1, length):
        # minimal over a p-group: every cochain with values in F_p is a cocycle
        phi = np.zeros((P.order, 2 * res.ranks[shift]), dtype=np.int64)
        phi[0] = rng.integers(0, p, phi.shape[1])
        _assert_same_arrays(res.lift([phi], shift, length - shift),
                            oracle.lift([phi], shift, length - shift))
    for _, twist, _ in stable_elements(G, p).pairs:
        psi = np.zeros((P.order, len(twist.source)), dtype=np.int64)
        psi[0] = 1
        _assert_same_arrays(res.lift([psi], 0, length, twist),
                            oracle.lift([psi], 0, length, twist))
    _assert_same_syzygies(M, range(1, length + 1), monkeypatch)


@pytest.mark.parametrize("name,p,per", [("Z2", 2, 1), ("Z3", 3, 2), ("Q16", 2, 4),
                                        ("D8", 2, None)])
def test_periods_are_pinned(name, p, per):
    res = FreeResolution(trivial_module(catalog.get_group(name), p), minimal=True)
    res.extend_to(16)
    assert (res._period and res._period[1]) == per
    if per is not None:
        start = res._period[0]
        for i in range(start + per + 1, 17):  # copies share the earlier arrays
            assert res.boundaries[i - 1] is res.boundaries[i - 1 - per]


def test_z3_through_degree_200_eliminates_three_kernels(Z3, monkeypatch):
    calls = []
    kernel = fplinalg.kernel
    monkeypatch.setattr(fplinalg, "kernel", lambda a, p: calls.append(a.shape) or kernel(a, p))
    res = FreeResolution(trivial_module(Z3, 3), minimal=True).extend_to(200)
    assert res.ranks == [1] * 201
    assert len(calls) <= 3


@pytest.mark.parametrize("name,p", [("Z3", 3), ("Q16", 2), ("Q8", 2)])
def test_factors_requested_only_after_extending_past_the_period(name, p):
    M = trivial_module(catalog.get_group(name), p)
    res = FreeResolution(M, minimal=True).extend_to(40)
    oracle = AperiodicResolution(M, minimal=True).extend_to(40)
    for k in range(40, 0, -1):  # the deepest first: none is built yet
        _assert_same_arrays(res._factor(k), oracle._factor(k))
    phi = _identity_lift_start(res)
    _assert_same_arrays(res.lift([phi], 0, 40), oracle.lift([phi], 0, 40))


@pytest.mark.parametrize("name,p", [("S3", 2), ("Z3", 3), ("D6", 2)])
def test_free_resolutions_match_the_aperiodic_oracle(name, p, monkeypatch):
    """Greedily pruned, not minimal: S3 at p = 2 repeats only from stage 7."""
    M = trivial_module(catalog.get_group(name), p)
    res = FreeResolution(M, minimal=False).extend_to(10)
    assert res._period is not None
    start, per = res._period
    length = max(10, start + 3 * per + 1)
    res.extend_to(length)
    oracle = AperiodicResolution(M, minimal=False)
    _assert_same_stages(res, oracle, length)
    phi = _identity_lift_start(res)
    _assert_same_arrays(res.lift([phi], 0, length), oracle.lift([phi], 0, length))
    # syzygy resolves a p-group's modules minimally, and the others freely
    _assert_same_syzygies(M, range(1, length + 1), monkeypatch)


@pytest.mark.parametrize("minimal", [True, False])
def test_projective_module_with_zero_stages(Z4, monkeypatch, minimal):
    M = regular_module(Z4, 2)
    res = FreeResolution(M, minimal=minimal).extend_to(8)
    assert res.ranks == [1] + [0] * 8
    _assert_same_stages(res, AperiodicResolution(M, minimal=minimal), 8)
    _assert_same_syzygies(M, range(1, 9), monkeypatch)
    assert all(syzygy(M, i).dim == 0 for i in range(1, 9))


def test_projective_summand_keeps_the_period(Z2, monkeypatch):
    """F_2[Z2] + F_2: the free summand dies at stage one, the trivial one
    repeats with period one."""
    M = direct_sum(regular_module(Z2, 2), trivial_module(Z2, 2))
    res = FreeResolution(M, minimal=True).extend_to(10)
    assert res.ranks == [2] + [1] * 10
    assert res._period is not None
    _assert_same_stages(res, AperiodicResolution(M, minimal=True), 10)
    _assert_same_syzygies(M, range(1, 11), monkeypatch)


@pytest.mark.parametrize("name,p", [("Z3", 3), ("Q8", 2)])
def test_newest_kernel_read_between_copied_stages(name, p):
    """Reading ker d_L past the period eliminates it from the copied d_L,
    and the stages copied after it keep every kernel's pivots in step."""
    M = trivial_module(catalog.get_group(name), p)
    res = FreeResolution(M, minimal=True).extend_to(9)
    oracle = AperiodicResolution(M, minimal=True).extend_to(14)
    for length in (9, 10, 13, 14):
        res.extend_to(length)
        K = res._newest_kernel()
        assert np.array_equal(K, fplinalg.kernel(full_boundary(res, length), p)[0])
        assert len(res._kernel_pivots) == length + 1
    oracle._newest_kernel()
    _assert_same_arrays(res._kernel_pivots, oracle._kernel_pivots)
    _assert_same_stages(res, oracle, 14)
