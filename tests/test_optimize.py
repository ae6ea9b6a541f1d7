import math

import numpy as np
import pytest

from refpoints import GEN_POINT
from wiretap_rates.core import CorrelationTriple, DomainError
from wiretap_rates.optimize import (
    SearchConfig,
    correlation_grid_axis,
    is_valid_correlation,
    minimize_rate,
    optimize_general,
)
from wiretap_rates.oracle import rate_general_oracle


def quadratic_objective(target):
    """Objective whose secure rate equals the squared distance to ``target``."""

    def f(r1, r2, r12):
        q = (r1 - target[0]) ** 2 + (r2 - target[1]) ** 2 + (r12 - target[2]) ** 2
        return np.full(q.shape, 10.0), 10.0 - q, np.full(q.shape, 50.0), np.full(q.shape, 50.0)

    return f


def test_grid_axis_contains_exact_anchors():
    for res in (0.5, 0.25, 0.1, 0.05, 0.3, 1.0):
        axis = correlation_grid_axis(res)
        assert axis[0] == -1.0 and axis[-1] == 1.0
        assert 0.0 in axis
        steps = np.diff(axis)
        assert np.allclose(steps, steps[0])


def test_grid_axis_snaps_resolution():
    assert correlation_grid_axis(0.5).size == 5
    assert correlation_grid_axis(1.0).size == 3
    # 1/0.3 rounds to 3, so the axis subdivides [-1, 1] into 6 steps
    assert correlation_grid_axis(0.3).size == 7


def test_grid_axis_rejects_bad_resolution():
    with pytest.raises(DomainError):
        correlation_grid_axis(0.0)
    with pytest.raises(DomainError):
        correlation_grid_axis(1.5)


def test_is_valid_correlation():
    assert is_valid_correlation(0.0, 0.0, 0.0)
    assert is_valid_correlation(1.0, 1.0, 1.0)
    assert not is_valid_correlation(0.9, 0.9, -0.9)
    assert not is_valid_correlation(1.1, 0.0, 0.0)
    assert not is_valid_correlation(math.nan, 0.0, 0.0)


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(coarse_resolution=0.6)
    with pytest.raises(DomainError):
        SearchConfig(refine_shrink=1.0)
    with pytest.raises(DomainError):
        SearchConfig(refine_iterations=-1)


def test_minimize_finds_interior_grid_minimum():
    # target lies exactly on the 0.05 grid, so the coarse stage lands on it
    res = minimize_rate(
        quadratic_objective((0.3, -0.2, 0.1)), SearchConfig(coarse_resolution=0.05)
    )
    assert res.rho_star.as_tuple() == pytest.approx((0.3, -0.2, 0.1), abs=1e-12)
    assert res.rate.secure_rate <= 1e-12
    assert not res.on_boundary


def test_minimize_refines_off_grid_minimum():
    target = (0.313, -0.207, 0.093)
    cfg = SearchConfig(coarse_resolution=0.1, refine_iterations=6)
    res = minimize_rate(quadratic_objective(target), cfg)
    for got, want in zip(res.rho_star.as_tuple(), target):
        assert abs(got - want) <= 0.01
    # descent may never end above the best coarse value
    coarse_only = minimize_rate(
        quadratic_objective(target),
        SearchConfig(coarse_resolution=0.1, refine_iterations=0),
    )
    assert res.rate.secure_rate <= coarse_only.rate.secure_rate


def test_minimize_constant_objective_breaks_ties_lexicographically():
    def flat(r1, r2, r12):
        return tuple(np.full(r1.shape, v) for v in (1.0, 0.5, 2.0, 2.0))

    res = minimize_rate(flat, SearchConfig(coarse_resolution=0.5))
    # first valid triple in (rho_1, rho_2, rho_12) order: both eavesdroppers
    # anti-aligned with the source forces their mutual correlation to 1
    assert res.rho_star.as_tuple() == (-1.0, -1.0, 1.0)
    assert res.on_boundary


def test_minimize_refines_off_edge_when_grid_minimum_is_on_an_edge():
    # The rate is 1 except in a dip between grid points, so every grid point
    # ties and the grid minimum is the edge corner (-1, -1, 1), from which
    # every axis move leaves the valid set.  Descent from the best point off
    # the edges finds the dip.
    target = (-0.4, -0.4, -0.4)

    def dip(r1, r2, r12):
        d2 = (r1 - target[0]) ** 2 + (r2 - target[1]) ** 2 + (r12 - target[2]) ** 2
        q = np.minimum(1.0, d2 / 0.15 ** 2)
        return np.full(q.shape, 10.0), 10.0 - q, np.full(q.shape, 50.0), np.full(q.shape, 50.0)

    res = minimize_rate(dip, SearchConfig(coarse_resolution=0.5))
    assert res.rate.secure_rate < 1e-6
    assert res.rho_star.as_tuple() == pytest.approx(target, abs=1e-3)


def test_minimize_is_deterministic():
    cfg = SearchConfig(coarse_resolution=0.25)
    a = optimize_general(GEN_POINT, cfg)
    b = optimize_general(GEN_POINT, cfg)
    assert a.rho_star.as_tuple() == b.rho_star.as_tuple()
    assert a.rate.secure_rate == b.rate.secure_rate
    assert a.evaluations == b.evaluations


def test_optimize_general_never_exceeds_fixed_points():
    cfg = SearchConfig(coarse_resolution=0.2)
    res = optimize_general(GEN_POINT, cfg)
    for tup in ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (-0.4, 0.4, -0.2)):
        fixed = rate_general_oracle(GEN_POINT, CorrelationTriple(*tup))
        assert res.rate.secure_rate <= fixed.secure_rate + 1e-12
    assert is_valid_correlation(*res.rho_star.as_tuple())
