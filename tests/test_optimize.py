import dataclasses
import math

import numpy as np
import pytest

from refpoints import GEN_POINT
from wiretap_rates import optimize
from wiretap_rates.cli import load_config
from wiretap_rates.core import (
    CorrelationTriple,
    DomainError,
    combine_breakdown,
    correlation_determinant,
    valid_correlation,
)
from wiretap_rates.gaussian import GeneralGaussianParams, strip_jamming
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


def flat(r1, r2, r12):
    return tuple(np.full(r1.shape, v) for v in (1.0, 0.5, 2.0, 2.0))


DIP_TARGET = (-0.4, -0.4, -0.4)


def dip(r1, r2, r12):
    """Rate 1 except in a dip of radius 0.15 around DIP_TARGET."""
    t = DIP_TARGET
    d2 = (r1 - t[0]) ** 2 + (r2 - t[1]) ** 2 + (r12 - t[2]) ** 2
    q = np.minimum(1.0, d2 / 0.15 ** 2)
    return np.full(q.shape, 10.0), 10.0 - q, np.full(q.shape, 50.0), np.full(q.shape, 50.0)


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
    res = minimize_rate(dip, SearchConfig(coarse_resolution=0.5))
    assert res.rate.secure_rate < 1e-6
    assert res.rho_star.as_tuple() == pytest.approx(DIP_TARGET, abs=1e-3)


def lowest_outside(r1, r2, r12):
    """Finite everywhere; the secure rate is max(2 + det, 0), so every
    invalid triple (det < -PSD_SLACK) beats every valid one."""
    det = correlation_determinant(r1, r2, r12)
    return 12.0 + det, np.full(det.shape, 10.0), 50.0, 50.0


def test_search_masks_an_objective_that_is_lowest_outside_the_valid_set():
    # The objective returns finite values everywhere, so only the search's
    # own mask keeps the invalid triples out.
    axis = correlation_grid_axis(0.1)
    views = (axis[:, None, None], axis[None, :, None], axis[None, None, :])
    sec, valid, _ = optimize._evaluate(lowest_outside, *views)
    want = valid_correlation(*np.meshgrid(axis, axis, axis, indexing="ij"))
    np.testing.assert_array_equal(valid, want)
    assert 0 < np.count_nonzero(valid) < valid.size
    assert np.all(sec[~valid] == np.inf)
    assert np.all(np.isfinite(sec[valid]))

    for refine in (0, 3):
        res = minimize_rate(lowest_outside, SearchConfig(coarse_resolution=0.1,
                                                         refine_iterations=refine))
        assert is_valid_correlation(*res.rho_star.as_tuple())
        assert res.rate.secure_rate >= 2.0 - 1e-12
        if refine == 0:
            assert res.evaluations == np.count_nonzero(want)
        else:
            assert res.evaluations > np.count_nonzero(want)


# Two shared-band scenarios of the point-fine benchmark pool (16 and 23),
# chosen because regrouping a sum or product in the grid terms moves their
# results: a plain shared-band point can hide such a change.
POOL_PARAMS = {
    "scenario-16": GeneralGaussianParams(
        h_l=1.7126768603441191, h_1e_l=0.15073648919453786, h_2e_l=0.1327827879446411,
        h_l_1e=0.3307906366961495, h_l_2e=0.5597547293499034,
        h_2e_1e=0.5776538979333501, h_1e_2e=0.3873611673312065,
        P_l=2.1265771481461813, P_1e=1.3657906357217666, P_2e=0.9591565618012711,
        N_l=0.8182755600462116, N_1e=0.8859317426970704, N_2e=0.9480307830275063,
    ),
    "scenario-23": GeneralGaussianParams(
        h_l=1.7772109521262298, h_1e_l=0.24034395500480965, h_2e_l=0.12969174657107563,
        h_l_1e=0.5470146125847845, h_l_2e=0.6490548888907485,
        h_2e_1e=0.37305119825675326, h_1e_2e=0.5367823421472653,
        P_l=1.5395659899082863, P_1e=1.3432343870627155, P_2e=0.6437861192947286,
        N_l=1.0407104809423788, N_1e=0.8505943811252303, N_2e=0.9471747673758043,
    ),
    "fig3a-P_l-20": dataclasses.replace(load_config("fig3a").general, P_l=20.0),
}

# (rho_star, (main, joint, single_1, single_2) as float.hex, evaluations,
# on_boundary) of optimize_general at coarse_resolution 0.05.  Any change to
# the search or the grid terms that moves a bit of these fails here.
PINNED_SEARCHES = {
    ("scenario-16", "jamming"): (
        (0.0504, 0.04, 0.99),
        ("0x1.7e2f479b64419p+0", "0x1.f06e8a66a4915p-2",
         "0x1.714251c0dfa51p-2", "0x1.f06f3eeba38a0p-2"),
        39198, False),
    ("scenario-16", "no-jamming"): (
        (0.060000000000000005, -0.060000000000000005, -1.0),
        ("0x1.8dd9cab1fc75dp+0", "0x1.f1d63054d3141p-2",
         "0x1.5520388547c48p-2", "0x1.f340862e83ce0p-2"),
        39187, True),
    ("scenario-23", "jamming"): (
        (0.1, 0.04, 0.894),
        ("0x1.31eca0d6c7197p+0", "0x1.230fd85144951p-1",
         "0x1.790b8f9271389p-2", "0x1.230f4cb4b1e4bp-1"),
        39181, False),
    ("scenario-23", "no-jamming"): (
        (0.11160000000000002, -0.10560000000000001, -0.9463999999999999),
        ("0x1.40824dfec055bp+0", "0x1.250dee1686847p-1",
         "0x1.598bdd2a3fc3ep-2", "0x1.251d7090db5c9p-1"),
        39199, False),
    ("fig3a-P_l-20", "jamming"): (
        (-0.8, -0.8, 0.85),
        ("0x1.d24b127196869p+0", "0x1.de34ef8d04682p+0",
         "0x1.0f12b64be8fa8p+1", "0x1.0f12b64be8fa8p+1"),
        39163, False),
    ("fig3a-P_l-20", "no-jamming"): (
        (-0.7, 0.0, -0.1),
        ("0x1.191bba891f171p+1", "0x1.19fe07f9bf397p+1",
         "0x1.198c04ea5dbd7p+1", "0x1.1072fca1e5ce6p+1"),
        39163, False),
}


@pytest.mark.parametrize("case", sorted(PINNED_SEARCHES), ids="-".join)
def test_optimize_general_pinned_results(case):
    params = POOL_PARAMS[case[0]]
    if case[1] == "no-jamming":
        params = strip_jamming(params)
    res = optimize_general(params, SearchConfig(coarse_resolution=0.05))
    b = res.rate
    got = (
        res.rho_star.as_tuple(),
        tuple(x.hex() for x in (b.main_rate, b.leak_joint, b.leak_single_1, b.leak_single_2)),
        res.evaluations,
        res.on_boundary,
    )
    assert got == PINNED_SEARCHES[case]


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


def materialized_minimize_rate(terms, cfg):
    """minimize_rate as a walk over materialized triples.

    Each chunk of rho_1 rows is meshgridded, flattened, compressed to its
    valid triples and searched by first-wins argmin, and descent evaluates
    only its valid candidates.  Scalar or lower-dimensional terms are
    broadcast to the triples.
    """
    axis = correlation_grid_axis(cfg.coarse_resolution)
    n = axis.size

    def evaluate(r1, r2, r12):
        out = [np.broadcast_to(t, r1.shape) for t in terms(r1, r2, r12)]
        main, joint, s1, s2 = out
        sec = np.maximum(main - np.minimum(joint, np.maximum(s1, s2)), 0.0)
        sec = np.where(np.isfinite(sec), sec, np.inf)

        def point(k):
            return float(sec[k]), (r1[k], r2[k], r12[k]), tuple(float(t[k]) for t in out)

        return sec, point

    best = best_off_edge = None
    evaluations = 0
    rows = max(1, optimize._CHUNK_TARGET // (n * n))
    for start in range(0, n, rows):
        grids = np.meshgrid(axis[start : start + rows], axis, axis, indexing="ij")
        r1, r2, r12 = (g.ravel() for g in grids)
        mask = valid_correlation(r1, r2, r12)
        r1, r2, r12 = r1[mask], r2[mask], r12[mask]
        sec, point = evaluate(r1, r2, r12)
        evaluations += sec.size
        k = int(np.argmin(sec))
        if best is None or sec[k] < best[0]:
            best = point(k)
        on_edge = np.maximum(np.maximum(np.abs(r1), np.abs(r2)), np.abs(r12)) == 1.0
        if on_edge[k]:
            k = int(np.argmin(np.where(on_edge, np.inf, sec)))
            if on_edge[k]:
                continue
        if best_off_edge is None or sec[k] < best_off_edge[0]:
            best_off_edge = point(k)

    def descend(best):
        used, step = 0, cfg.coarse_resolution
        for _ in range(cfg.refine_iterations):
            step *= cfg.refine_shrink
            for _sweep in range(optimize._MAX_SWEEPS_PER_PASS):
                sweep_start = best[0]
                for ax in range(3):
                    cands = []
                    for delta in (-step, step):
                        c = list(best[1])
                        c[ax] = min(1.0, max(-1.0, c[ax] + delta))
                        if is_valid_correlation(*c):
                            cands.append(c)
                    if cands:
                        sec, point = evaluate(*np.array(cands).T)
                        used += len(cands)
                        k = int(np.argmin(sec))
                        if sec[k] < best[0]:
                            best = point(k)
                if sweep_start - best[0] < cfg.tolerance:
                    break
        return best, used

    starts = [best]
    if best_off_edge is not None and max(map(abs, best[1])) == 1.0:
        starts.append(best_off_edge)
    descents = [descend(start) for start in starts]
    evaluations += sum(used for _, used in descents)
    _, rho, rate_terms = min((end for end, _ in descents), key=lambda end: end[0])
    rho_star = CorrelationTriple(*map(float, rho))
    return optimize.OptimizationResult(
        rho_star=rho_star,
        rate=combine_breakdown(*rate_terms),
        evaluations=evaluations,
        on_boundary=rho_star.determinant <= cfg.coarse_resolution ** 2,
    )


def with_nan(where):
    """A quadratic objective whose main term is NaN where ``where`` holds.

    Its minimum, (-0.55, 0, 0.1), lies in or next to the NaN regions below.
    """
    base = quadratic_objective((-0.55, 0.0, 0.1))

    def f(r1, r2, r12):
        main, joint, s1, s2 = base(r1, r2, r12)
        return np.where(where(r1, r2, r12), math.nan, main), joint, s1, s2

    return f


def low_dim(r1, r2, r12):
    """Scalars and terms of fewer correlations; ties along rho_12 remain."""
    joint = 10.0 - (r1 - 0.3) ** 2 - (r2 + 0.2) ** 2
    return 10.0, joint, np.float64(50.0), 50.0 + 0.0 * r12


PARITY_OBJECTIVES = {
    "quadratic": quadratic_objective((0.313, -0.207, 0.093)),
    "flat": flat,
    "dip": dip,
    # The first rows, so the first valid cells of the first chunk(s).
    "nan-first-rows": with_nan(lambda r1, r2, r12: r1 + r2 < -0.5),
    # Every cell of the rho_1 = -1 row, a whole chunk in one-row chunks.
    "nan-first-chunk": with_nan(lambda r1, r2, r12: r1 + 0.0 * r2 == -1.0),
    # Every cell of a middle row, next to the minimum.
    "nan-middle-chunk": with_nan(lambda r1, r2, r12: r1 + 0.0 * r2 == -0.5),
    # Every cell: the grid minimum is no finite point, so the search must
    # still start from the first valid cell and fail on its rate terms.
    "nan-everywhere": with_nan(lambda r1, r2, r12: r1 + r2 + r12 < 4.0),
    "low-dim": low_dim,
}


def search_outcome(search, terms, cfg):
    try:
        res = search(terms, cfg)
    except DomainError as err:
        return str(err)
    return res.rho_star, res.rate, res.evaluations, res.on_boundary


@pytest.mark.parametrize("rows_per_chunk", ["default", 1])
@pytest.mark.parametrize("name", sorted(PARITY_OBJECTIVES))
def test_broadcast_walk_matches_materialized_walk(name, rows_per_chunk, monkeypatch):
    # One row per chunk puts chunk boundaries inside the 0.5 and 0.1 grids,
    # which the default chunk size holds whole.
    if rows_per_chunk == 1:
        monkeypatch.setattr(optimize, "_CHUNK_TARGET", 1)
    terms = PARITY_OBJECTIVES[name]
    for res in (0.5, 0.1):
        for refine in (0, 3):
            cfg = SearchConfig(coarse_resolution=res, refine_iterations=refine)
            got = search_outcome(minimize_rate, terms, cfg)
            want = search_outcome(materialized_minimize_rate, terms, cfg)
            assert got == want, (res, refine)
            if name == "nan-everywhere":
                assert "main_rate must be finite" in got
