import math
from dataclasses import replace

import pytest

from wiretap_rates.audit import AuditRng, draw_general_params, draw_orthogonal_params
from wiretap_rates.cli import load_config, sweep_values
from wiretap_rates.core import CorrelationTriple, DomainError, ZERO_RHO, theta
from wiretap_rates.gaussian import (
    GeneralGaussianParams,
    OrthogonalGaussianParams,
    rate_general_closed,
    rate_noncolluding,
    rate_orthogonal,
    rate_perfectcolluding,
    single_eavesdropper_leakage,
    strip_jamming,
)
from wiretap_rates.oracle import rate_general_oracle, rate_orthogonal_oracle

from refpoints import GEN_POINT, OG_POINT


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
