import collections
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from wiretap_rates import audit
from wiretap_rates.audit import AuditRng, draw_general_params, draw_orthogonal_params
from wiretap_rates.cli import load_config, sweep_values
from wiretap_rates.core import (
    CorrelationTriple,
    DomainError,
    ZERO_RHO,
    effective_leakages,
    secure_rates,
    theta,
    valid_correlation,
)
from wiretap_rates.gaussian import (
    GeneralGaussianParams,
    OrthogonalGaussianParams,
    rate_general_closed,
    rate_general_closed_rows,
    rate_noncolluding,
    rate_orthogonal,
    orthogonal_rates,
    rate_orthogonal_rows,
    rate_perfectcolluding,
    single_eavesdropper_leakage,
    single_eavesdropper_leakage_rows,
    strip_jamming,
)
from wiretap_rates.optimize import SearchConfig, correlation_grid_axis, optimize_general
from wiretap_rates.oracle import rate_general_oracle, rate_orthogonal_oracle

from refpoints import GEN_POINT, OG_POINT, pool_point


def test_orthogonal_terms_assembled_from_snrs():
    # independent re-derivation of every term at the reference point
    s1 = 0.8 ** 2 * 4.0 / 1.0
    s2 = 0.6 ** 2 * 4.0 / 1.5
    c1 = 0.5 ** 2 * 3.0 / 0.8
    c2 = 0.7 ** 2 * 2.0 / 1.2
    b = rate_orthogonal(OG_POINT)
    assert b.main_rate == theta(4.0)
    assert b.leak_joint == theta(s1 + s2)
    assert b.leak_single_1 == theta(s1 + c1 + s1 * c1)
    assert b.leak_single_2 == theta(s2 + c2 + s2 * c2)
    assert b.effective_leakage == min(
        b.leak_joint, max(b.leak_single_1, b.leak_single_2)
    )


def test_orthogonal_matches_covariance_route():
    rng = AuditRng(2024)
    for _ in range(50):
        p = draw_orthogonal_params(rng)
        c = rate_orthogonal(p)
        o = rate_orthogonal_oracle(p)
        for a, b in (
            (c.main_rate, o.main_rate),
            (c.leak_joint, o.leak_joint),
            (c.leak_single_1, o.leak_single_1),
            (c.leak_single_2, o.leak_single_2),
            (c.secure_rate, o.secure_rate),
        ):
            assert abs(a - b) <= 1e-9


def test_noncolluding_is_silent_eavesdropper_limit():
    silent = replace(OG_POINT, P_1e=0.0, P_2e=0.0)
    assert rate_noncolluding(OG_POINT) == rate_orthogonal(silent).secure_rate


def test_noncolluding_binds_on_strongest_listener():
    r = rate_noncolluding(OG_POINT)
    s1 = 0.8 ** 2 * 4.0
    assert r == pytest.approx(theta(4.0) - theta(s1))


def test_perfectcolluding_is_high_power_limit():
    loud = replace(OG_POINT, P_1e=1e9, P_2e=1e9)
    assert abs(
        rate_orthogonal(loud).secure_rate - rate_perfectcolluding(OG_POINT)
    ) <= 1e-6


def test_rate_ordering_pc_og_nc():
    rng = AuditRng(77)
    for _ in range(200):
        p = draw_orthogonal_params(rng)
        og = rate_orthogonal(p).secure_rate
        assert rate_perfectcolluding(p) <= og + 1e-12
        assert og <= rate_noncolluding(p) + 1e-12


def test_baselines_clamp_at_zero():
    deaf = replace(OG_POINT, h_l=0.01)
    assert rate_noncolluding(deaf) == 0.0
    assert rate_perfectcolluding(deaf) == 0.0


def _reference_baselines(p):
    """R_nc and R_pc from the orthogonal model's listening SNRs."""
    main = theta(p.h_l ** 2 * p.P_l / p.N_l)
    s1 = p.h_1m ** 2 * p.P_l / p.N_1e_m
    s2 = p.h_2m ** 2 * p.P_l / p.N_2e_m
    return (max(main - max(theta(s1), theta(s2)), 0.0),
            max(main - theta(s1 + s2), 0.0))


def test_baselines_equal_reference_formulas_exactly():
    rng = AuditRng(2024)
    points = [draw_orthogonal_params(rng) for _ in range(2000)]
    for name in ("fig3a", "fig3b"):
        cfg = load_config(name)
        for h_l in (cfg.orthogonal.h_l, 2.0):
            points += [replace(cfg.orthogonal, h_l=h_l, P_l=x)
                       for x in sweep_values(cfg.sweep)]
    positive = 0
    for p in points:
        nc, pc = rate_noncolluding(p), rate_perfectcolluding(p)
        assert (nc, pc) == _reference_baselines(p)
        positive += pc > 0.0
    assert 0 < positive < len(points)


def test_single_leakage_uses_partner_correlation():
    # j=1's cross term is driven by rho_2; rho_1 must not affect it
    a = single_eavesdropper_leakage(1, GEN_POINT, CorrelationTriple(0.0, 0.4, 0.1))
    b = single_eavesdropper_leakage(1, GEN_POINT, CorrelationTriple(0.7, 0.4, 0.1))
    assert a == b
    # j=2 is driven by rho_1 under the default reading
    c = single_eavesdropper_leakage(2, GEN_POINT, CorrelationTriple(0.4, 0.0, 0.1))
    d = single_eavesdropper_leakage(2, GEN_POINT, CorrelationTriple(0.4, 0.7, 0.1))
    assert c == d


def test_single_leakage_rho2_both_variant():
    t = CorrelationTriple(0.3, 0.6, 0.2)
    default = single_eavesdropper_leakage(2, GEN_POINT, t)
    variant = single_eavesdropper_leakage(2, GEN_POINT, t, rho2_both=True)
    swapped = single_eavesdropper_leakage(
        2, GEN_POINT, CorrelationTriple(0.6, 0.6, 0.2)
    )
    assert variant != default
    assert variant == swapped
    # j=1 ignores the flag
    assert single_eavesdropper_leakage(1, GEN_POINT, t) == \
        single_eavesdropper_leakage(1, GEN_POINT, t, rho2_both=True)


def test_single_leakage_rejects_bad_index():
    with pytest.raises(DomainError):
        single_eavesdropper_leakage(3, GEN_POINT, ZERO_RHO)


def test_single_leakage_formula_at_reference():
    t = CorrelationTriple(0.3, 0.6, 0.2)
    num = (
        0.9 ** 2 * 4.0
        + 0.3 ** 2 * 3.0
        + 2.0 * 0.9 * 0.3 * 0.6 * math.sqrt(4.0 * 3.0)
    )
    assert single_eavesdropper_leakage(1, GEN_POINT, t) == theta(num / 0.8)


def test_general_closed_matches_oracle_at_zero_rho():
    rng = AuditRng(99)
    for _ in range(100):
        p = draw_general_params(rng)
        c = rate_general_closed(p, ZERO_RHO)
        o = rate_general_oracle(p, ZERO_RHO)
        for a, b in (
            (c.main_rate, o.main_rate),
            (c.leak_joint, o.leak_joint),
            (c.leak_single_1, o.leak_single_1),
            (c.leak_single_2, o.leak_single_2),
        ):
            assert abs(a - b) <= 1e-9


def test_general_closed_main_matches_on_single_rho_slices():
    # the printed main term agrees with the covariance route whenever
    # rho_1 * rho_2 = 0, and leaves it once both are active
    for tup in ((0.5, 0.0, -0.3), (0.0, 0.6, 0.25)):
        t = CorrelationTriple(*tup)
        c = rate_general_closed(GEN_POINT, t)
        o = rate_general_oracle(GEN_POINT, t)
        assert abs(c.main_rate - o.main_rate) <= 1e-9
    t = CorrelationTriple(0.5, 0.5, 0.3)
    diff = abs(
        rate_general_closed(GEN_POINT, t).main_rate
        - rate_general_oracle(GEN_POINT, t).main_rate
    )
    assert diff > 1e-3


def test_general_closed_joint_deviates_off_zero():
    # the printed residual weights the correlations by squared powers, so
    # for unequal eavesdropper powers it deviates at any nonzero rho_j
    t = CorrelationTriple(0.5, 0.0, -0.3)
    c = rate_general_closed(GEN_POINT, t)
    o = rate_general_oracle(GEN_POINT, t)
    assert abs(c.leak_joint - o.leak_joint) > 1e-3


def test_general_closed_singles_match_oracle_everywhere():
    rng = AuditRng(4242)
    from wiretap_rates.audit import draw_correlation
    from wiretap_rates.oracle import build_joint_covariance_general, mi_gaussian
    for _ in range(100):
        p = draw_general_params(rng)
        t = draw_correlation(rng)
        cov = build_joint_covariance_general(p, t)
        sources = ["X_l", "X_1e", "X_2e"]
        for j, out in ((1, "Y_1e"), (2, "Y_2e")):
            closed = single_eavesdropper_leakage(j, p, t)
            assert abs(closed - mi_gaussian(cov, sources, [out])) <= 1e-9


def test_general_closed_leaves_domain_at_feasible_rho():
    t = CorrelationTriple(0.45, 0.85, 0.0)
    assert t.determinant >= 0.0
    with pytest.raises(DomainError, match="joint-leakage argument"):
        rate_general_closed(GEN_POINT, t)
    # the covariance route has no such restriction
    assert rate_general_oracle(GEN_POINT, t).secure_rate >= 0.0


def test_general_closed_rejects_degenerate_inputs():
    with pytest.raises(DomainError, match="P_1e"):
        rate_general_closed(replace(GEN_POINT, P_1e=0.0), ZERO_RHO)
    with pytest.raises(DomainError, match="P_2e"):
        rate_general_closed(replace(GEN_POINT, P_2e=0.0), ZERO_RHO)
    with pytest.raises(DomainError, match="rho_12"):
        rate_general_closed(GEN_POINT, CorrelationTriple(0.0, 0.0, 1.0))


def test_strip_jamming_zeroes_only_jamming_gains():
    s = strip_jamming(GEN_POINT)
    assert s.h_1e_l == 0.0 and s.h_2e_l == 0.0
    assert s.h_l_1e == GEN_POINT.h_l_1e
    assert s.P_l == GEN_POINT.P_l


def test_nonjamming_is_closed_form_without_jamming():
    b = rate_general_closed(strip_jamming(GEN_POINT), CorrelationTriple(0.2, 0.0, 0.1))
    # without jamming the main term is correlation-free
    assert b.main_rate == theta(4.0)


def test_param_validation():
    with pytest.raises(DomainError):
        replace(OG_POINT, P_l=-1.0)
    with pytest.raises(DomainError):
        replace(OG_POINT, N_l=0.0)
    with pytest.raises(DomainError):
        replace(GEN_POINT, N_1e=-2.0)
    with pytest.raises(DomainError):
        replace(GEN_POINT, h_l=math.inf)


def row(p):
    """One parameter set as a (1, 13) array in field order."""
    return np.array([astuple(p)])


@pytest.mark.parametrize("form, gain", [
    ("orthogonal", "h_l"), ("general", "h_l"), ("single_1", "h_l_1e"),
])
def test_a_gain_whose_square_overflows_raises_domain_error(form, gain):
    # Python raises OverflowError on the square of a finite gain past about
    # 1.3e154; every closed form names the gain instead, and its batch marks
    # the row undefined without a RuntimeWarning (which Tier-1 makes an error).
    evaluate, rows = {
        "orthogonal": (rate_orthogonal, lambda p: rate_orthogonal_rows(row(p))),
        "general": (lambda p: rate_general_closed(p, ZERO_RHO),
                    lambda p: rate_general_closed_rows(row(p), np.zeros((1, 3)))),
        "single_1": (lambda p: single_eavesdropper_leakage(1, p, ZERO_RHO),
                     lambda p: single_eavesdropper_leakage_rows(1, row(p), np.zeros((1, 3)))),
    }[form]
    p = replace(OG_POINT if form == "orthogonal" else GEN_POINT, **{gain: 1e200})
    with pytest.raises(DomainError, match=f"^gain {gain} = 1e\\+200 is too large: its square overflows a float$"):
        evaluate(p)
    assert np.isnan(rows(p)).all()


def printed_orthogonal(p):
    """rate_orthogonal's four terms in plain floats: Python's ** and theta."""
    s1 = p.h_1m ** 2 * p.P_l / p.N_1e_m
    s2 = p.h_2m ** 2 * p.P_l / p.N_2e_m
    c1 = p.h_1c ** 2 * p.P_2e / p.N_1e_c
    c2 = p.h_2c ** 2 * p.P_1e / p.N_2e_c
    return [theta(p.h_l ** 2 * p.P_l / p.N_l), theta(s1 + s2),
            theta(s1 + c1 + s1 * c1), theta(s2 + c2 + s2 * c2)]


def printed_single(j, p, rho, rho2_both=False):
    """Eavesdropper j's printed single leakage in plain floats."""
    r1, r2, _ = rho
    if j == 1:
        h, g, p_k, n, r = p.h_l_1e, p.h_2e_1e, p.P_2e, p.N_1e, r2
    else:
        h, g, p_k, n, r = p.h_l_2e, p.h_1e_2e, p.P_1e, p.N_2e, r2 if rho2_both else r1
    return theta((h ** 2 * p.P_l + g ** 2 * p_k + 2.0 * h * g * r * math.sqrt(p.P_l * p_k)) / n)


def printed_general(p, rho):
    """The printed shared-band terms in plain floats, or None where the
    printed expression leaves its domain."""
    r1, r2, r12 = rho
    g1, g2 = p.h_1e_l, p.h_2e_l
    num = (p.h_l ** 2 * p.P_l + r1 ** 2 * g1 ** 2 * p.P_1e + r2 ** 2 * g2 ** 2 * p.P_2e
           + 2.0 * p.h_l * g1 * r1 * math.sqrt(p.P_l * p.P_1e)
           + 2.0 * p.h_l * g2 * r2 * math.sqrt(p.P_l * p.P_2e))
    den = (g1 ** 2 * p.P_1e * (1.0 - r1 ** 2) + g2 ** 2 * p.P_2e * (1.0 - r2 ** 2)
           + 2.0 * g1 * g2 * r12 * math.sqrt(p.P_1e * p.P_2e) + p.N_l)
    residual = 1.0 - (r1 ** 2 * p.P_1e ** 2 + r2 ** 2 * p.P_2e ** 2
                      + 2.0 * r1 * r2 * r12 * p.P_1e * p.P_2e) / (p.P_1e * p.P_2e * (1.0 - r12 ** 2))
    joint = p.P_l * residual * (p.h_l_1e ** 2 / p.N_1e + p.h_l_2e ** 2 / p.N_2e)
    if den <= 0.0 or num < 0.0 or joint < 0.0:
        return None
    return [theta(num / den), theta(joint), printed_single(1, p, rho), printed_single(2, p, rho)]


def audit_draws(family):
    """The first 1,000 audit draws of a family at seed 12345: parameter
    rows, and the shared band's triples."""
    ranges = {"orthogonal": audit._ORTHOGONAL_RANGES, "general": audit._GENERAL_RANGES}[family]
    return audit._draw(AuditRng(12345), 1000, ranges, family == "general")


def test_batch_rows_equal_the_printed_forms_in_plain_floats():
    # Bit for bit: the batches take squares with the C library's pow and
    # theta with its log2, as the plain expressions do.
    params, _ = audit_draws("orthogonal")
    assert rate_orthogonal_rows(params).tolist() == [
        printed_orthogonal(OrthogonalGaussianParams(*r)) for r in params.tolist()]
    params, rhos = audit_draws("general")
    points = [GeneralGaussianParams(*r) for r in params.tolist()]
    at_zero = rate_general_closed_rows(params, np.zeros_like(rhos))
    assert at_zero.tolist() == [printed_general(p, (0.0, 0.0, 0.0)) for p in points]
    at_rho = rate_general_closed_rows(params, rhos)
    for p, rho, terms in zip(points, rhos.tolist(), at_rho):
        expected = printed_general(p, rho)
        assert np.isnan(terms).all() if expected is None else terms.tolist() == expected
    for j, rho2_both in ((1, False), (2, False), (2, True)):
        assert single_eavesdropper_leakage_rows(j, params, rhos, rho2_both).tolist() == [
            printed_single(j, p, rho, rho2_both) for p, rho in zip(points, rhos.tolist())]


def test_orthogonal_rates_equal_the_three_scalar_calls():
    params, _ = audit_draws("orthogonal")
    for p in [OG_POINT] + [OrthogonalGaussianParams(*r) for r in params[:300].tolist()]:
        b, r_nc, r_pc = orthogonal_rates(p)
        assert (astuple(b), r_nc, r_pc) == \
            (astuple(rate_orthogonal(p)), rate_noncolluding(p), rate_perfectcolluding(p))


@pytest.mark.parametrize("fields", [{"h_l": 1e200}, {"h_1c": 1e10, "P_2e": 1e300}],
                         ids=["both-rows", "loud-row-only"])
def test_orthogonal_rates_raise_the_orthogonal_rate_error(fields):
    # The silent row of the second point is in the domain.
    p = replace(OG_POINT, **fields)
    with pytest.raises(DomainError) as expected:
        rate_orthogonal(p)
    with pytest.raises(DomainError, match=f"^{re.escape(str(expected.value))}$"):
        orthogonal_rates(p)


def test_scalar_orthogonal_calls_are_batches_of_one():
    params, _ = audit_draws("orthogonal")
    batch = rate_orthogonal_rows(params)
    assert [astuple(rate_orthogonal(OrthogonalGaussianParams(*r))) for r in params.tolist()] == \
        [tuple(terms) for terms in batch.tolist()]


def test_scalar_shared_band_calls_are_batches_of_one():
    params, rhos = audit_draws("general")
    at_rho = rate_general_closed_rows(params, rhos)
    at_zero = rate_general_closed_rows(params, np.zeros_like(rhos))
    singles = [single_eavesdropper_leakage_rows(j, params, rhos, alt)
               for j, alt in ((1, False), (2, False), (2, True))]
    raised = collections.Counter()
    for i, (r, rho) in enumerate(zip(params.tolist(), rhos.tolist())):
        p, t = GeneralGaussianParams(*r), CorrelationTriple(*rho)
        assert astuple(rate_general_closed(p, ZERO_RHO)) == tuple(at_zero[i].tolist())
        assert [single_eavesdropper_leakage(j, p, t, alt)
                for j, alt in ((1, False), (2, False), (2, True))] == [s[i] for s in singles]
        try:
            terms = astuple(rate_general_closed(p, t))
        except DomainError as e:
            # The scalar call raises on exactly the rows the batch leaves
            # undefined, with the message of the first check the row fails.
            assert np.isnan(at_rho[i]).all()
            raised[str(e).split(" (")[0]] += 1
        else:
            assert terms == tuple(at_rho[i].tolist())
    # 473 of 1,000, as the audit reports for general/rho/main and joint.
    assert raised == {"joint-leakage argument is negative": 347,
                      "main-term numerator is negative": 96,
                      "main-term denominator is not positive": 30}


# The printed secure rate's worst case over the valid 0.05 grid, triples
# where the printed form is undefined masked off, against the R_g of
# optimize_general at 0.05 on the same point-fine scenario.  Grid values,
# not infima: a finer grid or a descent moves them.  On scenario 0 the
# printed form claims a worst case 0.028 bits above the searched R_g, a
# rate the eavesdroppers can push below; on scenario 19 it is 0.043 below.
PRINTED_WORST_CASE = {
    0: (0.2501116219628209, (0.15, -0.15, 0.8), 0.22181105227496561),
    19: (0.593361074370673, (-0.2, 0.5, 0.7), 0.6360988881074008),
}


@pytest.mark.parametrize("scenario", sorted(PRINTED_WORST_CASE))
def test_printed_worst_case_on_the_grid_against_the_search(scenario):
    printed, at, searched = PRINTED_WORST_CASE[scenario]
    p = pool_point(scenario)
    axis = correlation_grid_axis(0.05)
    r1, r2, r12 = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
    rhos = np.column_stack([r1, r2, r12])[valid_correlation(r1, r2, r12)]
    terms = rate_general_closed_rows(np.repeat(row(p), len(rhos), axis=0), rhos)
    rates = secure_rates(terms[:, 0], effective_leakages(*terms[:, 1:].T))
    worst = np.nanargmin(rates)
    assert rates[worst] == pytest.approx(printed, abs=1e-9)
    assert rhos[worst].tolist() == pytest.approx(at, abs=1e-12)
    _, res_g = optimize_general(p, SearchConfig(coarse_resolution=0.05))
    assert res_g.rate.secure_rate == pytest.approx(searched, abs=1e-9)


@pytest.mark.parametrize("form, fields, message", [
    # The joint term's argument overflows before the cross gain is squared.
    ("orthogonal", {"h_1m": 1e150, "N_1e_m": 1e-10, "h_1c": 1e200},
     "theta argument must be finite, got inf"),
    ("general", {"P_1e": 0.0, "h_l": 1e200},
     "rate_general_closed requires P_1e > 0; use the covariance route for degenerate powers"),
    # h_l's square is finite; the main term's argument is not, and it comes
    # before the joint term squares h_l_1e.
    ("general", {"h_l": 1e154, "h_l_1e": 1e200}, "theta argument must be finite, got inf"),
    ("single_1", {"h_l_1e": 1e200, "h_2e_1e": 1e200},
     "gain h_l_1e = 1e+200 is too large: its square overflows a float"),
], ids=["orthogonal-joint-before-cross-gain", "general-power-before-gain",
        "general-main-before-joint-gain", "single_1-h_l_1e-before-h_2e_1e"])
def test_a_row_that_fails_two_checks_raises_the_first(form, fields, message):
    # Each form checks its quantities in the order it computes them, so a
    # row that fails two checks raises the one the form makes first; its
    # batch leaves the row undefined.
    evaluate, rows = {
        "orthogonal": (rate_orthogonal, lambda p: rate_orthogonal_rows(row(p))),
        "general": (lambda p: rate_general_closed(p, ZERO_RHO),
                    lambda p: rate_general_closed_rows(row(p), np.zeros((1, 3)))),
        "single_1": (lambda p: single_eavesdropper_leakage(1, p, ZERO_RHO),
                     lambda p: single_eavesdropper_leakage_rows(1, row(p), np.zeros((1, 3)))),
    }[form]
    p = replace(OG_POINT if form == "orthogonal" else GEN_POINT, **fields)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        evaluate(p)
    assert np.isnan(rows(p)).all()
