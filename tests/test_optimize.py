import dataclasses
import functools
import math

import numpy as np
import pytest

from refpoints import GEN_POINT, POOL_POINTS, pool_point
from wiretap_rates import cli, core, optimize, oracle
from wiretap_rates.core import (
    CorrelationTriple,
    DomainError,
    PSD_SLACK,
    RateBreakdown,
    correlation_determinant,
    valid_correlation,
    valid_correlation as is_valid_correlation,
)
from wiretap_rates.gaussian import GeneralGaussianParams, strip_jamming
from wiretap_rates.optimize import (
    SearchConfig,
    correlation_grid_axis,
    optimize_general,
)
from wiretap_rates.oracle import rate_general_oracle


def zero_bound(r1, r2):
    """The line bound every objective meets, since secure rates are >= 0."""
    return 0.0


def minimize_rate(terms, cfg):
    """optimize.minimize_rate on a test objective, with the zero bound."""
    return optimize.minimize_rate(terms, zero_bound, cfg)


def quadratic_objective(target):
    """Objective whose secure rate equals the squared distance to ``target``."""

    def f(r1, r2, r12, det):
        q = (r1 - target[0]) ** 2 + (r2 - target[1]) ** 2 + (r12 - target[2]) ** 2
        return np.full(q.shape, 10.0), 10.0 - q, np.full(q.shape, 50.0), np.full(q.shape, 50.0)

    return f


def flat(r1, r2, r12, det):
    return tuple(np.full(r1.shape, v) for v in (1.0, 0.5, 2.0, 2.0))


DIP_TARGET = (-0.4, -0.4, -0.4)


def dip(r1, r2, r12, det):
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
    # Just past 1 the determinant is within PSD_SLACK of 0, so only the
    # bound on each entry rejects these.
    past_one = 1.0 + 2.0 ** -52
    for rho in ((past_one, 1.0, 1.0), (1.0, past_one, 1.0), (1.0, 1.0, past_one)):
        assert correlation_determinant(*rho) >= -PSD_SLACK
        assert not is_valid_correlation(*rho)
        assert not is_valid_correlation(*map(np.array, rho))


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


def lowest_outside(r1, r2, r12, det):
    """Finite everywhere; the secure rate is max(2 + det, 0), so every
    invalid triple (det < -PSD_SLACK) beats every valid one."""
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


# The benchmark pool scenarios, and the fig3a point at a high legitimate power.
POOL_PARAMS = {
    **POOL_POINTS,
    "fig3a-P_l-20": dataclasses.replace(cli.load_config("fig3a").general, P_l=20.0),
}

# (rho_star, (main, joint, single_1, single_2) as float.hex, evaluations,
# on_boundary) of optimize_general at coarse_resolution 0.05, or at the
# resolution a key's third entry gives: no jamming is the pair's first
# result, jamming its second.  Any change to the search or the grid terms
# that moves a bit of these fails here; a change to how far the walk goes
# moves only evaluations.  At 0.01 each walk stops after a few of its 409
# chunks; at 0.05 the first chunk holds 29% of the lines.
PINNED_SEARCHES = {
    ("scenario-16", "jamming"): (
        (0.0504, 0.04, 0.99),
        ("0x1.7e2f479b64419p+0", "0x1.f06e8a66a4915p-2",
         "0x1.714251c0dfa51p-2", "0x1.f06f3eeba38a0p-2"),
        17263, False),
    ("scenario-16", "no-jamming"): (
        (0.060000000000000005, -0.060000000000000005, -1.0),
        ("0x1.8dd9cab1fc75dp+0", "0x1.f1d63054d3141p-2",
         "0x1.5520388547c48p-2", "0x1.f340862e83ce0p-2"),
        17339, True),
    ("scenario-23", "jamming"): (
        (0.1, 0.04, 0.894),
        ("0x1.31eca0d6c7197p+0", "0x1.230fd85144951p-1",
         "0x1.790b8f9271389p-2", "0x1.230f4cb4b1e4bp-1"),
        17155, False),
    ("scenario-23", "no-jamming"): (
        (0.11160000000000002, -0.10560000000000001, -0.9463999999999999),
        ("0x1.40824dfec055bp+0", "0x1.250dee1686847p-1",
         "0x1.598bdd2a3fc3ep-2", "0x1.251d7090db5c9p-1"),
        17027, False),
    ("fig3a-P_l-20", "jamming"): (
        (-0.8, -0.8, 0.85),
        ("0x1.d24b127196869p+0", "0x1.de34ef8d04682p+0",
         "0x1.0f12b64be8fa8p+1", "0x1.0f12b64be8fa8p+1"),
        14313, False),
    ("fig3a-P_l-20", "no-jamming"): (
        (-0.7, 0.0, -0.1),
        ("0x1.191bba891f171p+1", "0x1.19fe07f9bf397p+1",
         "0x1.198c04ea5dbd7p+1", "0x1.1072fca1e5ce6p+1"),
        16496, False),
    ("scenario-16", "jamming", "0.01"): (
        (0.0504, 0.04, 0.98992),
        ("0x1.7e2f7222a006bp+0", "0x1.f07288cdc9a32p-2",
         "0x1.714251c0dfa51p-2", "0x1.f06f3eeba38a0p-2"),
        58571, False),
    ("scenario-16", "no-jamming", "0.01"): (
        (0.05584, -0.027919999999999997, -0.49999999999999994),
        ("0x1.8dd9cab1fc75dp+0", "0x1.f20306751eefap-2",
         "0x1.5e44ac32599d7p-2", "0x1.f2084ed3af976p-2"),
        19735, False),
    ("scenario-23", "jamming", "0.01"): (
        (0.11, 0.1004, 0.9804799999999999),
        ("0x1.32958126ae387p+0", "0x1.24d52962acc81p-1",
         "0x1.85ba5011344dfp-2", "0x1.24d50ae154290p-1"),
        77697, False),
    ("scenario-23", "no-jamming", "0.01"): (
        (0.11136000000000001, -0.10936000000000001, -0.98208),
        ("0x1.40824dfec055bp+0", "0x1.2510bc78fda85p-1",
         "0x1.58b70087e643bp-2", "0x1.2512956ae45b4p-1"),
        19623, False),
}


@pytest.mark.parametrize("case", sorted(PINNED_SEARCHES), ids="-".join)
def test_optimize_general_pinned_results(case, evaluation_counts):
    name, objective, *resolution = case
    cfg = SearchConfig(coarse_resolution=float(resolution[0]) if resolution else 0.05)
    res_njg, res_g = optimize_general(POOL_PARAMS[name], cfg)
    # Each count is that of the triples the search evaluated.
    assert evaluation_counts == [res_njg.evaluations, res_g.evaluations]
    res = res_g if objective == "jamming" else res_njg
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
    for a, b in zip(optimize_general(GEN_POINT, cfg), optimize_general(GEN_POINT, cfg)):
        assert a.rho_star.as_tuple() == b.rho_star.as_tuple()
        assert a.rate.secure_rate == b.rate.secure_rate
        assert a.evaluations == b.evaluations


def test_optimize_general_never_exceeds_fixed_points():
    cfg = SearchConfig(coarse_resolution=0.2)
    searches = optimize_general(GEN_POINT, cfg)
    for res, params in zip(searches, (strip_jamming(GEN_POINT), GEN_POINT)):
        for tup in ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (-0.4, 0.4, -0.2)):
            fixed = rate_general_oracle(params, CorrelationTriple(*tup))
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
        det = correlation_determinant(r1, r2, r12)
        out = [np.broadcast_to(t, r1.shape) for t in terms(r1, r2, r12, det)]
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
        rate=RateBreakdown(*rate_terms),
        evaluations=evaluations,
        on_boundary=rho_star.determinant <= cfg.coarse_resolution ** 2,
    )


def with_nan(where):
    """A quadratic objective whose main term is NaN where ``where`` holds.

    Its minimum, (-0.55, 0, 0.1), lies in or next to the NaN regions below.
    """
    base = quadratic_objective((-0.55, 0.0, 0.1))

    def f(r1, r2, r12, det):
        main, joint, s1, s2 = base(r1, r2, r12, det)
        return np.where(where(r1, r2, r12), math.nan, main), joint, s1, s2

    return f


def low_dim(r1, r2, r12, det):
    """Scalars and terms of fewer correlations; ties along rho_12 remain."""
    joint = 10.0 - (r1 - 0.3) ** 2 - (r2 + 0.2) ** 2
    return 10.0, joint, np.float64(50.0), 50.0 + 0.0 * r12


def dip_through_quadratic_leakage(r1, r2, r12, det):
    """The dip's rate, up to round-off, over the quadratic objective's
    leakages, which vary from cell to cell; on the 0.5 grid its minimum
    lies on an edge."""
    main, joint, s1, s2 = PARITY_OBJECTIVES["quadratic"](r1, r2, r12, det)
    _, dip_joint, _, _ = dip(r1, r2, r12, det)
    return main - dip_joint + joint, joint, s1, s2


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
    "dip-through-quadratic-leakage": dip_through_quadratic_leakage,
}


def search_outcome(search, terms, cfg):
    try:
        res = search(terms, cfg)
    except DomainError as err:
        return str(err), None
    return (res.rho_star, res.rate, res.on_boundary), res.evaluations


@pytest.mark.parametrize("rows_per_chunk", ["default", 1])
@pytest.mark.parametrize("name", sorted(PARITY_OBJECTIVES))
def test_broadcast_walk_matches_materialized_walk(name, rows_per_chunk, monkeypatch,
                                                  evaluation_counts):
    # One row per chunk puts chunk boundaries inside the 0.5 and 0.1 grids,
    # which the default chunk size holds whole.
    if rows_per_chunk == 1:
        monkeypatch.setattr(optimize, "_CHUNK_TARGET", 1)
    terms = PARITY_OBJECTIVES[name]
    for res in (0.5, 0.1):
        for refine in (0, 3):
            cfg = SearchConfig(coarse_resolution=res, refine_iterations=refine)
            got, evaluations = search_outcome(minimize_rate, terms, cfg)
            want, every_line = search_outcome(materialized_minimize_rate, terms, cfg)
            assert got == want, (res, refine)
            if name == "nan-everywhere":
                assert "main_rate must be finite" in got
                continue
            # Under the zero bound only a rate of 0 stops the walk early, as
            # on low-dim; otherwise it evaluates what the materialized walk
            # does, every valid triple of the grid.
            assert evaluations == evaluation_counts[-1], (res, refine)
            if got[1].secure_rate > 0.0:
                assert evaluations == every_line, (res, refine)
            else:
                assert evaluations <= every_line, (res, refine)


def full_walk_chunks(cfg):
    """The shapes of the coarse stage's chunks of lines when it walks them all."""
    n = correlation_grid_axis(cfg.coarse_resolution).size
    lines = max(1, optimize._CHUNK_TARGET // n)
    return [(min(lines, n * n - start), n) for start in range(0, n * n, lines)]


def record_coarse_chunks(monkeypatch):
    """A list that collects, per search, the rate arrays of every coarse
    chunk walked."""
    evaluate, search = optimize._evaluate, optimize.minimize_rate
    searches = []

    def recorded_search(*args):
        searches.append([])
        return search(*args)

    def recorded(*args, **kwargs):
        rates, valid, used = evaluate(*args, **kwargs)
        if valid.ndim == 2:
            searches[-1].append(rates)
        return rates, valid, used

    monkeypatch.setattr(optimize, "minimize_rate", recorded_search)
    monkeypatch.setattr(optimize, "_evaluate", recorded)
    return searches


def test_each_coarse_chunk_computes_the_determinant_once(monkeypatch):
    # The validity mask and the grid's joint term share one determinant per
    # chunk of lines, in each search of the pair.  Chunk-sized (2-D)
    # determinants are counted wherever the function is bound; the descents
    # and the final reads evaluate 1-D arrays.
    cfg = SearchConfig(coarse_resolution=0.01)
    chunk_calls = []

    def counted(r1, r2, r12):
        det = correlation_determinant(r1, r2, r12)
        if np.ndim(det) == 2:
            chunk_calls.append(np.shape(det))
        return det

    for module in (core, oracle, optimize):
        monkeypatch.setattr(module, "correlation_determinant", counted, raising=False)
    searches = record_coarse_chunks(monkeypatch)
    optimize_general(POOL_POINTS["scenario-16"], cfg)
    # Each walk stops early: R_njg's after its first chunk of whole lines,
    # R_g's after more.
    full = full_walk_chunks(cfg)
    njg, g = searches
    assert len(njg) == 1 < len(g) < len(full)
    for chunks in searches:
        assert [rates.shape for rates in chunks] == full[:len(chunks)]
    assert chunk_calls == [rates.shape for chunks in searches for rates in chunks]


def test_coarse_chunks_of_one_shape_share_their_rate_arrays(monkeypatch):
    # Rate arrays allocated anew per chunk made the heap shrink and grow
    # again, paging in every chunk's arrays.  Each chunk writes its rates
    # into the previous chunk's array when the shapes match.  Under the zero
    # bound the quadratic objective, never 0 on the grid, is walked to the
    # last, shorter chunk.
    searches = record_coarse_chunks(monkeypatch)
    cfg = SearchConfig(coarse_resolution=0.02)
    chunks = full_walk_chunks(cfg)
    assert len(set(chunks)) == 2 and len(chunks) > 2
    minimize_rate(PARITY_OBJECTIVES["quadratic"], cfg)
    (returned,) = searches
    assert [rates.shape for rates in returned] == chunks
    for prev, cur in zip(returned, returned[1:]):
        assert (prev is cur) == (prev.shape == cur.shape)


def test_each_coarse_chunk_evaluates_the_grid_terms_once_per_point(monkeypatch):
    # Each search of a point calls the grid terms once per chunk of its walk,
    # R_njg on the parameters with jamming stripped, whose main term is one
    # value, then R_g.
    chunk_calls = []

    def counted(p, *args):
        terms = oracle.general_rate_terms_grid(p, *args)
        if np.ndim(terms[1]) == 2:
            chunk_calls.append((p, np.shape(terms[0]), np.shape(terms[1])))
        return terms

    monkeypatch.setattr(optimize, "general_rate_terms_grid", counted)
    searches = record_coarse_chunks(monkeypatch)
    fig3a = cli.load_config("fig3a")
    cli.general_point(fig3a.orthogonal, GEN_POINT, fig3a.optimizer)
    njg, g = searches
    assert njg and g
    assert chunk_calls == ([(strip_jamming(GEN_POINT), (), rates.shape) for rates in njg]
                           + [(GEN_POINT, rates.shape, rates.shape) for rates in g])


# The pool scenarios, the figures and degenerate parameters: zero powers, no
# jamming gains or only one, and negative gains on both sides of the main
# term's slope.
BOUND_PARAMS = {
    **{f"pool-{k}": pool_point(k) for k in range(24)},
    "gen-point": GEN_POINT,
    "fig3a": cli.load_config("fig3a").general,
    "fig3a_hl2": cli.load_config("fig3a_hl2").general,
    "fig3a-P_l-20": POOL_PARAMS["fig3a-P_l-20"],
    "P_1e-0": dataclasses.replace(GEN_POINT, P_1e=0.0),
    "P_2e-0": dataclasses.replace(GEN_POINT, P_2e=0.0),
    "P_1e-P_2e-0": dataclasses.replace(GEN_POINT, P_1e=0.0, P_2e=0.0),
    "P_l-0": dataclasses.replace(GEN_POINT, P_l=0.0),
    "no-jamming-gains": dataclasses.replace(GEN_POINT, h_1e_l=0.0, h_2e_l=0.0),
    "h_2e_l-0": dataclasses.replace(GEN_POINT, h_2e_l=0.0),
    "negative-gains": dataclasses.replace(GEN_POINT, h_1e_l=-0.5, h_2e_l=-0.4,
                                          h_l_1e=-0.9, h_2e_1e=-0.3),
    "negative-jamming-gains": dataclasses.replace(GEN_POINT, h_1e_l=-0.5, h_2e_l=-0.4),
}


@pytest.mark.parametrize("name", sorted(BOUND_PARAMS))
def test_line_bounds_hold_on_every_valid_cell(name):
    # Every valid cell of the whole 0.05 grid has a secure rate at or above
    # its line's bound, for both searches of optimize_general, exactly as
    # they compute them: no margin is needed here.
    p = BOUND_PARAMS[name]
    axis = correlation_grid_axis(0.05)
    views = (axis[:, None, None], axis[None, :, None], axis[None, None, :])
    for q in (strip_jamming(p), p):
        terms = functools.partial(oracle.general_rate_terms_grid, q)
        sec, valid, _ = optimize._evaluate(terms, *views)
        low = oracle.general_line_bound(q, axis[:, None], axis[None, :])
        low = np.broadcast_to(np.asarray(low)[:, :, None], sec.shape)
        assert np.isfinite(sec[valid]).all()
        assert (sec[valid] >= low[valid]).all(), float(np.max((low - sec)[valid]))


# Two cells of the 0.5 grid have rate 0, A before B in C order; every other
# cell's rate is its squared distance to the nearer of them.
ZERO_A, ZERO_B = (-0.5, -0.5, 0.0), (0.5, 0.5, 0.0)


def two_zeros(r1, r2, r12, det):
    q = np.minimum(*(sum((r - t) ** 2 for r, t in zip((r1, r2, r12), c))
                     for c in (ZERO_A, ZERO_B)))
    return np.full(q.shape, 10.0), 10.0 - q, 50.0, 50.0


def search_two_zeros(monkeypatch, bound):
    """The walk over two_zeros at one line per chunk, without descents."""
    monkeypatch.setattr(optimize, "_CHUNK_TARGET", 1)
    cfg = SearchConfig(coarse_resolution=0.5, refine_iterations=0)
    return optimize.minimize_rate(two_zeros, bound, cfg)


def test_a_zero_found_first_leaves_the_lines_before_it_open(monkeypatch):
    # The bound ranks B's line first; a rate of 0 rules out only the lines
    # after it, so A's line, whose bound is 0, is still walked, and A wins
    # the tie.
    def bound(r1, r2):
        return np.where((r1 == ZERO_B[0]) & (r2 == ZERO_B[1]), -1.0, 0.0)

    res = search_two_zeros(monkeypatch, bound)
    assert res.rho_star.as_tuple() == ZERO_A and res.rate.secure_rate == 0.0


@pytest.mark.parametrize("a_bound", [5e-10, math.nan], ids=["within-margin", "nan"])
def test_a_zero_walks_on_to_an_open_line_before_it(monkeypatch, a_bound):
    # The bound ranks B's line first, then the lines after it in C order
    # (bound 0), which cannot beat it, then A's line, whose bound is within
    # the margin of 0 or NaN (which sorts last and rules no line out); every
    # other line before B has its exact least rate as its bound, at least
    # 0.25.  A's line is still open after B, so the walk goes on to it.
    axis = correlation_grid_axis(0.5)
    sec, _, _ = optimize._evaluate(two_zeros, axis[:, None, None], axis[None, :, None],
                                   axis[None, None, :])
    least = sec.min(axis=2)
    lines = np.arange(least.size).reshape(least.shape)
    b_line, a_line = (np.searchsorted(axis, z[0]) * axis.size + np.searchsorted(axis, z[1])
                      for z in (ZERO_B, ZERO_A))
    low = np.where(lines > b_line, 0.0, least)
    low[lines == b_line] = -1.0
    low[lines == a_line] = a_bound
    assert least[(lines < b_line) & (lines != a_line)].min() >= 0.25

    def bound(r1, r2):
        return low[np.searchsorted(axis, r1), np.searchsorted(axis, r2)]

    res = search_two_zeros(monkeypatch, bound)
    assert res.rho_star.as_tuple() == ZERO_A and res.rate.secure_rate == 0.0


def test_a_nan_bound_rules_no_line_out(monkeypatch):
    # Every line's bound is its least rate, except the minimum's line, whose
    # bound is NaN: the walk must still reach it after every other line is
    # ruled out.
    monkeypatch.setattr(optimize, "_CHUNK_TARGET", 1)
    target = (0.5, -0.5, 0.0)
    terms = quadratic_objective(target)

    def bound(r1, r2):
        low = (r1 - target[0]) ** 2 + (r2 - target[1]) ** 2
        return np.where(low == 0.0, math.nan, low)

    cfg = SearchConfig(coarse_resolution=0.5, refine_iterations=0)
    res = optimize.minimize_rate(terms, bound, cfg)
    assert res.rho_star.as_tuple() == target and res.rate.secure_rate == 0.0
