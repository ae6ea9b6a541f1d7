import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wiretap_rates.core import (
    PSD_SLACK,
    CorrelationTriple,
    DomainError,
    RateBreakdown,
    ZERO_RHO,
    correlation_determinant,
    effective_leakages,
    secure_rates,
    theta,
    valid_correlation,
)

snr = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


def test_theta_known_values():
    assert theta(0.0) == 0.0
    assert theta(1.0) == 0.5
    assert theta(3.0) == pytest.approx(1.0, abs=1e-15)


def test_theta_rejects_out_of_domain():
    with pytest.raises(DomainError):
        theta(-1e-9)
    with pytest.raises(DomainError):
        theta(math.inf)
    with pytest.raises(DomainError):
        theta(math.nan)


@given(snr, snr)
def test_theta_monotone(a, b):
    lo, hi = sorted((a, b))
    assert theta(lo) <= theta(hi)


@given(snr, snr)
def test_theta_subadditive(a, b):
    # log2(1+a+b) <= log2((1+a)(1+b))
    assert theta(a + b) <= theta(a) + theta(b) + 1e-12


def test_zero_rho_is_identity_matrix():
    assert ZERO_RHO.as_tuple() == (0.0, 0.0, 0.0)
    assert ZERO_RHO.determinant == 1.0


def test_correlation_determinant_examples():
    assert correlation_determinant(0.0, 0.0, 0.0) == 1.0
    assert correlation_determinant(1.0, 1.0, 1.0) == 0.0
    assert correlation_determinant(1.0, -1.0, -1.0) == 0.0
    # equicorrelated at -1/2 is singular
    assert correlation_determinant(-0.5, -0.5, -0.5) == pytest.approx(0.0)


def test_triple_rejects_entries_outside_unit_interval():
    with pytest.raises(DomainError):
        CorrelationTriple(1.0 + 1e-9, 0.0, 0.0)
    with pytest.raises(DomainError):
        CorrelationTriple(0.0, math.nan, 0.0)


def test_triple_rejects_indefinite_matrix():
    # entries individually fine, matrix not PSD
    with pytest.raises(DomainError):
        CorrelationTriple(0.9, 0.9, -0.9)


def test_triple_accepts_boundary_within_slack():
    t = CorrelationTriple(1.0, 1.0, 1.0)
    assert t.determinant == 0.0
    assert CorrelationTriple(0.5, 0.5, -0.5).determinant >= -PSD_SLACK


EDGE_RHOS = [-math.inf, -1.5, -1.0, -0.9, -0.5, 0.0, 0.5, 0.9, 1.0 - 2.0 ** -53, 1.0,
             1.0 + 2.0 ** -52, math.inf, math.nan]


def test_valid_correlation_floats_match_arrays():
    # Three floats give a bool; it must agree with the array result
    # elementwise, at the bounds, at NaN and infinities, and on the
    # singular triples where the determinant is 0.
    r1, r2, r12 = np.meshgrid(EDGE_RHOS, EDGE_RHOS, EDGE_RHOS, indexing="ij")
    array_valid = valid_correlation(r1, r2, r12)
    assert array_valid.any() and not array_valid.all()
    for (i, j, k), want in np.ndenumerate(array_valid):
        got = valid_correlation(EDGE_RHOS[i], EDGE_RHOS[j], EDGE_RHOS[k])
        assert isinstance(got, bool) and got == want, (i, j, k)


@given(st.tuples(*[st.floats(min_value=-1.01, max_value=1.01)] * 3))
def test_valid_correlation_float_path_matches_array_path(rho):
    assert valid_correlation(*rho) == bool(valid_correlation(*map(np.array, rho)))


def test_combine_breakdown_joint_binds():
    b = RateBreakdown(1.0, 0.2, 0.5, 0.6)
    assert b.effective_leakage == 0.2
    assert b.secure_rate == pytest.approx(0.8)
    assert not b.clamped


def test_combine_breakdown_single_binds():
    b = RateBreakdown(1.0, 0.9, 0.5, 0.6)
    assert b.effective_leakage == 0.6
    assert b.secure_rate == pytest.approx(0.4)


def test_combine_breakdown_clamps_negative_gap():
    b = RateBreakdown(0.1, 0.5, 0.4, 0.3)
    assert b.secure_rate == 0.0
    assert b.clamped


def test_combine_breakdown_zero_gap_not_clamped():
    b = RateBreakdown(0.5, 0.5, 0.5, 0.5)
    assert b.secure_rate == 0.0
    assert not b.clamped


def test_secure_rates_equal_combine_breakdown_elementwise():
    rng = np.random.default_rng(11)
    # A cube of main rates over terms of fewer axes, drawn from one range so
    # that many gaps are negative; one slice has gaps of exactly zero.
    joint = rng.uniform(0.0, 2.0, (4, 5, 1))
    single_1 = rng.uniform(0.0, 2.0, (1, 5, 6))
    single_2 = rng.uniform(0.0, 2.0, 6)
    main = rng.uniform(0.0, 2.0, (4, 5, 6))
    main[0] = np.minimum(joint, np.maximum(single_1, single_2))[0]
    gaps = main - np.minimum(joint, np.maximum(single_1, single_2))
    assert (gaps < 0.0).any() and (gaps == 0.0).any() and (gaps > 0.0).any()

    cases = [
        (main, joint, single_1, single_2),
        (main[1, 2], joint[1, 2], single_1[0, 2], single_2),
        (main[0, 0], joint[0, 0], single_1[0, 0], single_2),
        (1.0, 0.2, 0.5, 0.6),
        (0.1, 0.5, 0.4, 0.3),
        (0.5, 0.5, 0.5, 0.5),
    ]
    for terms in cases:
        got = secure_rates(terms[0], effective_leakages(*terms[1:]))
        cells = np.broadcast_arrays(*terms)
        want = [RateBreakdown(*t).secure_rate
                for t in zip(*(c.ravel().tolist() for c in cells))]
        assert got.shape == cells[0].shape
        assert got.ravel().tolist() == want

    out = np.empty(main.shape)
    leakage = effective_leakages(joint, single_1, single_2)
    assert secure_rates(main, leakage, out=out) is out


def test_secure_rates_keep_nan():
    # The correlation search masks a cell by its NaN rate, so a NaN term
    # must never turn into a clamped 0 or a finite rate.
    # Main rates above, at and below the effective leakage 0.15.
    for main in (1.0, 0.15, 0.05):
        terms = [main, 0.2, 0.1, 0.15]
        for k in range(4):
            cube = [np.full((2, 3), t) for t in terms]
            cube[k][1, 2] = math.nan
            rates = secure_rates(cube[0], effective_leakages(*cube[1:]))
            assert math.isnan(rates[1, 2])
            assert np.isfinite(np.delete(rates.ravel(), 5)).all()
            scalars = list(terms)
            scalars[k] = math.nan
            assert math.isnan(secure_rates(scalars[0], effective_leakages(*scalars[1:])))


def test_breakdown_rejects_negative_terms():
    with pytest.raises(DomainError):
        RateBreakdown(main_rate=-0.1, leak_joint=0.0, leak_single_1=0.0,
                      leak_single_2=0.0)


leak = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(leak, leak, leak, leak)
def test_combine_breakdown_effective_never_exceeds_joint(m, j, s1, s2):
    b = RateBreakdown(m, j, s1, s2)
    assert b.effective_leakage <= j
    assert b.effective_leakage <= max(s1, s2)
    assert 0.0 <= b.secure_rate <= m
