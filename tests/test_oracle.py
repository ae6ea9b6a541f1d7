import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wiretap_rates.audit import (
    AuditRng,
    draw_correlation,
    draw_general_params,
    draw_orthogonal_params,
)
from wiretap_rates import discrete, oracle
from wiretap_rates.cli import load_config
from wiretap_rates.core import (
    PSD_SLACK,
    CorrelationTriple,
    DomainError,
    ZERO_RHO,
    correlation_determinant,
    theta,
    valid_correlation,
)
from wiretap_rates.gaussian import (
    GeneralGaussianParams,
    rate_orthogonal,
    strip_jamming,
)
from wiretap_rates.optimize import correlation_grid_axis
from wiretap_rates.oracle import (
    GENERAL_LABELS,
    ORTHOGONAL_LABELS,
    JointCovariance,
    build_joint_covariance_general,
    build_joint_covariance_orthogonal,
    general_rate_terms_grid,
    mi_gaussian,
    rate_general_oracle,
    rate_orthogonal_oracle,
)
from refpoints import GEN_POINT, OG_POINT


def test_labels():
    assert GENERAL_LABELS == ("X_l", "X_1e", "X_2e", "Y_l", "Y_1e", "Y_2e")
    assert len(ORTHOGONAL_LABELS) == 8


def _reading(labels, term):
    """I(A; B | C) with each index set of ``term`` read through ``labels``."""
    a, b, c = (", ".join(labels[i] for i in group) for group in term)
    return f"I({a}; {b} | {c})" if c else f"I({a}; {b})"


@pytest.mark.parametrize(
    "terms, labels, y_1e, y_2e",
    [
        (oracle._GENERAL_TERMS, GENERAL_LABELS, "Y_1e", "Y_2e"),
        (oracle._ORTHOGONAL_TERMS, ORTHOGONAL_LABELS, "Y_1e_m, Y_1e_c", "Y_2e_m, Y_2e_c"),
        # The discrete axes X_L, ..., Y_2E number the general labels in order.
        (discrete._RATE_TERMS, GENERAL_LABELS, "Y_1e", "Y_2e"),
    ],
    ids=["general", "orthogonal", "discrete"],
)
def test_rate_terms_read_as_the_paper_states_them(terms, labels, y_1e, y_2e):
    assert [_reading(labels, t) for t in terms] == [
        "I(X_l; Y_l)",
        f"I(X_l; {y_1e}, {y_2e} | X_1e, X_2e)",
        f"I(X_l, X_1e, X_2e; {y_1e})",
        f"I(X_l, X_1e, X_2e; {y_2e})",
    ]


def test_covariance_rejects_asymmetric_matrix():
    m = np.array([[1.0, 0.5], [0.3, 1.0]])
    with pytest.raises(DomainError, match="symmetric"):
        JointCovariance(("a", "b"), m)


def test_covariance_rejects_indefinite_matrix():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DomainError, match="positive semidefinite"):
        JointCovariance(("a", "b"), m)


def test_covariance_check_parts_round_off_from_a_negative_eigenvalue():
    # [[1, 1 + e], [1 + e, 1]] has least eigenvalue -e; the bound is -1e-10.
    JointCovariance(("a", "b"), np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]]))
    with pytest.raises(DomainError, match="positive semidefinite"):
        JointCovariance(("a", "b"), np.array([[1.0, 1.0 + 1e-8], [1.0 + 1e-8, 1.0]]))


@pytest.mark.parametrize(
    "entry, value, message",
    [((0, 3), 100.0, "positive semidefinite"), ((0, 1), None, "symmetric")],
    ids=["indefinite", "asymmetric"],
)
def test_covariance_check_rejects_a_bad_matrix(entry, value, message):
    m = build_joint_covariance_general(GEN_POINT, ZERO_RHO).matrix.copy()
    oracle._check_covariances(m)
    i, j = entry
    if value is None:
        # One off-diagonal entry moved, its mirror kept.
        m[i, j] += 1e-6
    else:
        m[i, j] = m[j, i] = value
    with pytest.raises(DomainError, match=message):
        oracle._check_covariances(m)


def test_covariance_unknown_label():
    cov = build_joint_covariance_general(GEN_POINT, ZERO_RHO)
    with pytest.raises(DomainError, match="unknown variable"):
        cov.index("Y_3e")


def test_general_covariance_output_variance():
    # var(Y_l) assembled by hand from the channel equation
    t = CorrelationTriple(0.3, -0.2, 0.1)
    cov = build_joint_covariance_general(GEN_POINT, t)
    p = GEN_POINT
    expect = (
        p.h_l ** 2 * p.P_l
        + p.h_1e_l ** 2 * p.P_1e
        + p.h_2e_l ** 2 * p.P_2e
        + 2.0 * p.h_l * p.h_1e_l * 0.3 * math.sqrt(p.P_l * p.P_1e)
        + 2.0 * p.h_l * p.h_2e_l * (-0.2) * math.sqrt(p.P_l * p.P_2e)
        + 2.0 * p.h_1e_l * p.h_2e_l * 0.1 * math.sqrt(p.P_1e * p.P_2e)
        + p.N_l
    )
    i = cov.index("Y_l")
    assert cov.matrix[i, i] == pytest.approx(expect, rel=1e-14)


def test_orthogonal_covariance_matches_snr_structure():
    cov = build_joint_covariance_orthogonal(OG_POINT)
    # listening output Y_1e_m carries only the legitimate signal
    i = cov.index("Y_1e_m")
    assert cov.matrix[i, i] == pytest.approx(
        OG_POINT.h_1m ** 2 * OG_POINT.P_l + OG_POINT.N_1e_m
    )
    j = cov.index("X_2e")
    assert cov.matrix[i, j] == 0.0


def test_mi_gaussian_scalar_channel():
    # Y = X + Z with snr P/N: I(X;Y) must equal theta(P/N)
    P, N = 3.0, 0.5
    m = np.array([[P, P], [P, P + N]])
    cov = JointCovariance(("X", "Y"), m)
    assert mi_gaussian(cov, ["X"], ["Y"]) == pytest.approx(theta(P / N), abs=1e-12)


def test_mi_gaussian_keeps_an_eigenvalue_just_above_the_floor():
    # 1 - rho^2 = 1e-11: the least eigenvalue, 1 - rho = 5e-12, is 1e-11 of
    # the largest, and the 18.27 bits must survive it.
    rho = math.sqrt(1.0 - 1e-11)
    cov = JointCovariance(("a", "b"), np.array([[1.0, rho], [rho, 1.0]]))
    want = -0.5 * math.log2(1.0 - rho * rho)
    assert want == pytest.approx(18.2706, abs=1e-4)
    assert mi_gaussian(cov, ["a"], ["b"]) == pytest.approx(want, abs=1e-6)


def test_mi_gaussian_refuses_a_singular_block():
    # [[1, 1], [1, 1]] is a covariance, but I(a; b) is infinite: the
    # log-determinant of the whole block is -inf.  That is a clean
    # DomainError, with no nan, no -inf and no RuntimeWarning on the way.
    cov = JointCovariance(("a", "b"), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="singular"):
            mi_gaussian(cov, ["a"], ["b"])


def test_negative_round_off_is_truncated_only_down_to_neg_tol():
    assert oracle._nonnegative(-5e-10) == 0.0
    with pytest.raises(DomainError, match="inconsistent"):
        oracle._nonnegative(-2e-9)


def test_mi_gaussian_symmetry_and_independence():
    cov = build_joint_covariance_general(GEN_POINT, ZERO_RHO)
    a = mi_gaussian(cov, ["X_l"], ["Y_1e"])
    b = mi_gaussian(cov, ["Y_1e"], ["X_l"])
    assert a == pytest.approx(b, abs=1e-12)
    # independent transmit signals at zero correlation
    assert mi_gaussian(cov, ["X_l"], ["X_1e"]) == pytest.approx(0.0, abs=1e-9)


def test_mi_gaussian_chain_rule():
    rng = AuditRng(555)
    for _ in range(50):
        p = draw_general_params(rng)
        t = draw_correlation(rng)
        cov = build_joint_covariance_general(p, t)
        lhs = mi_gaussian(cov, ["X_l"], ["Y_1e", "Y_2e"])
        rhs = mi_gaussian(cov, ["X_l"], ["Y_1e"]) + mi_gaussian(
            cov, ["X_l"], ["Y_2e"], ["Y_1e"]
        )
        assert abs(lhs - rhs) <= 1e-9


def test_mi_gaussian_accepts_integer_indices():
    cov = build_joint_covariance_general(GEN_POINT, ZERO_RHO)
    assert mi_gaussian(cov, [0], [3]) == mi_gaussian(cov, ["X_l"], ["Y_l"])


def test_oracle_routes_are_independent_of_regularization_scale():
    # scaling all powers and noises by a common factor leaves rates unchanged
    rng = AuditRng(31)
    for _ in range(50):
        p = draw_orthogonal_params(rng)
        scaled = type(p)(**{
            f: getattr(p, f) * (100.0 if f.startswith(("P", "N")) else 1.0)
            for f in p.__dataclass_fields__
        })
        a = rate_orthogonal_oracle(p)
        b = rate_orthogonal_oracle(scaled)
        assert abs(a.secure_rate - b.secure_rate) <= 1e-9


def test_degenerate_powers_evaluate_to_limits():
    # One case per degenerate branch of the grid (zero powers, |rho_12| = 1,
    # |rho_2| = 1); the grid and the log-det reference must both reach the
    # limit worked out by hand, and agree on all four terms.
    p = GEN_POINT
    gain = p.h_l_1e ** 2 / p.N_1e + p.h_l_2e ** 2 / p.N_2e
    rho = (0.3, -0.4, 0.2)
    cases = (
        # (params, rho, term index, limit): a zero-power input carries no
        # information about X_l, so only the other one is conditioned on.
        (dataclasses.replace(p, P_1e=0.0), rho, 1, theta(p.P_l * (1 - 0.4 ** 2) * gain)),
        (dataclasses.replace(p, P_2e=0.0), rho, 1, theta(p.P_l * (1 - 0.3 ** 2) * gain)),
        (dataclasses.replace(p, P_1e=0.0, P_2e=0.0), rho, 1, theta(p.P_l * gain)),
        # Without jamming the main term is that of the legitimate link alone;
        # with one jamming gain 0, that of the other eavesdropper's jamming.
        (strip_jamming(p), rho, 0, theta(p.P_l * p.h_l ** 2 / p.N_l)),
        (
            dataclasses.replace(p, h_2e_l=0.0),
            rho,
            0,
            theta((p.h_l * math.sqrt(p.P_l) + p.h_1e_l * math.sqrt(p.P_1e) * 0.3) ** 2
                  / (p.h_1e_l ** 2 * p.P_1e * (1 - 0.3 ** 2) + p.N_l)),
        ),
        # No legitimate signal, no rate and no leakage.
        (dataclasses.replace(p, P_l=0.0), rho, 0, 0.0),
        (dataclasses.replace(p, P_l=0.0), rho, 1, 0.0),
        # rho_12 = -1 ties X_2e to X_1e, so conditioning on X_1e is enough.
        (p, (0.3, -0.3, -1.0), 1, theta(p.P_l * (1 - 0.3 ** 2) * gain)),
        # rho_2 = 1 ties X_2e to X_l: the joint leakage vanishes and
        # eavesdropper 1 hears both signals coherently.
        (p, (0.3, 1.0, 0.3), 1, 0.0),
        (
            p,
            (0.3, 1.0, 0.3),
            2,
            theta((p.h_l_1e * math.sqrt(p.P_l) + p.h_2e_1e * math.sqrt(p.P_2e)) ** 2 / p.N_1e),
        ),
    )
    for params, triple, term, limit in cases:
        grid = [float(t) for t in general_rate_terms_grid(params, *map(np.array, triple))]
        b = rate_general_oracle(params, CorrelationTriple(*triple))
        ref = (b.main_rate, b.leak_joint, b.leak_single_1, b.leak_single_2)
        case = (params, triple, term)
        assert abs(grid[term] - limit) <= 1e-12, case
        assert abs(ref[term] - limit) <= 1e-12, case
        assert max(abs(g - r) for g, r in zip(grid, ref)) <= 1e-12, case


# Each family's reference point, with its oracle at the uncorrelated point.
_FAMILIES = {
    "general": (GEN_POINT, lambda p: rate_general_oracle(p, ZERO_RHO)),
    "orthogonal": (OG_POINT, rate_orthogonal_oracle),
}


# The decades of h_l swept, in three bands: up to 1e5, where a clamped
# eigenvalue of the assembled covariance would no longer cancel; up to 1e7,
# where 1e-12 of var(Y_l) would exceed P_l; and on to 1e100.
_SNR_BANDS = {"1e3-1e5": range(3, 6), "1e6-1e7": range(6, 8), "1e8-1e100": range(8, 101)}


@pytest.mark.parametrize("band", list(_SNR_BANDS))
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_oracle_keeps_its_precision_at_high_snr(family, band):
    # Every eigenvalue of I + M M^T is at least 1, so no log-determinant
    # loses one however large h_l grows: the shared-band oracle stays with
    # the grid, and the orthogonal one with its closed form, from h_l = 1e3
    # to 1e100, with the main term near 1/2 log2(h_l^2) bits.
    p, _ = _FAMILIES[family]
    worst = 0.0
    for k in _SNR_BANDS[band]:
        q = dataclasses.replace(p, h_l=10.0 ** k)
        if family == "general":
            for triple in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.1)):
                got = _terms(rate_general_oracle(q, CorrelationTriple(*triple)))
                want = [float(t) for t in general_rate_terms_grid(q, *map(np.array, triple))]
                worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
        else:
            got, want = _terms(rate_orthogonal_oracle(q)), _terms(rate_orthogonal(q))
            worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
        assert got[0] > 3.3 * k - 1.0, k
    assert worst <= 1e-12


@pytest.mark.parametrize("h_l", [1e160, 1e200])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_oracle_refuses_a_covariance_past_the_float_range(family, h_l):
    # h_l^2 P_l overflows, so the whitened output covariance of Y_l is not
    # finite; no log-determinant may see it.
    p, evaluate = _FAMILIES[family]
    with pytest.raises(DomainError, match="non-finite"):
        evaluate(dataclasses.replace(p, h_l=h_l))


def test_a_stack_evaluates_each_row_as_alone():
    # One path serves every row: a regular triple, a silent eavesdropper, a
    # silent legitimate transmitter, rho_12 = -1, a triple next to the edge
    # and h_l = 1e50 give, in one stack, each row's values alone, bit for bit.
    rows = [
        (GEN_POINT, (0.3, -0.2, 0.1)),
        (dataclasses.replace(GEN_POINT, P_1e=0.0), (0.3, -0.4, 0.2)),
        (dataclasses.replace(GEN_POINT, P_l=0.0), (0.3, -0.4, 0.2)),
        (GEN_POINT, (0.3, -0.3, -1.0)),
        (GEN_POINT, (0.3, 0.3, 1.0 - 1e-9)),
        (dataclasses.replace(GEN_POINT, h_l=1e50), (0.3, -0.2, 0.1)),
    ]
    params = np.concatenate([oracle._param_rows(p) for p, _ in rows])
    triples = np.array([t for _, t in rows])
    whole = oracle._rate_general_oracles(params, *triples.T)
    for i, (p, t) in enumerate(rows):
        alone = oracle._rate_general_oracles(oracle._param_rows(p), *t)
        assert whole[i].tobytes() == alone[0].tobytes(), i


def _exact_joint(p, triple):
    """The joint term from var(X_l | X_1e, X_2e) / P_l = det R / (1 - rho_12^2),
    the ratio evaluated exactly in rationals from the floats given."""
    r1, r2, r12 = map(Fraction, triple)
    det = 1 - r1 * r1 - r2 * r2 - r12 * r12 + 2 * r1 * r2 * r12
    gain = p.h_l_1e ** 2 / p.N_1e + p.h_l_2e ** 2 / p.N_2e
    return theta(p.P_l * float(det / (1 - r12 * r12)) * gain)


_EDGE = 1.0 - 1e-9
_NEAR_EDGE = [(0.95, _EDGE, 0.95), (_EDGE, 0.95, 0.95), (0.95, 0.95, _EDGE), (0.3, 0.3, _EDGE)]


@pytest.mark.parametrize("triple", _NEAR_EDGE, ids=["rho_2", "rho_1", "rho_12", "rho_12-0.3"])
def test_oracle_keeps_full_precision_next_to_the_edge(triple):
    # Within 1e-9 of |rho| = 1 the joint term is the exact ratio's to 1e-12
    # bits, and every term the grid's.  The joint term where rho_12 is the
    # near-1 correlation is left out of the grid comparison: there the
    # grid's determinant cancels to about 1e-7 of itself (see the next test).
    b = rate_general_oracle(GEN_POINT, CorrelationTriple(*triple))
    assert abs(b.leak_joint - _exact_joint(GEN_POINT, triple)) <= 1e-12
    grid = [float(t) for t in general_rate_terms_grid(GEN_POINT, *map(np.array, triple))]
    for k, (got, want) in enumerate(zip(_terms(b), grid)):
        if not (k == 1 and triple[2] == _EDGE):
            assert abs(got - want) <= 1e-12, k


@pytest.mark.xfail(strict=True, reason="the grid's joint term divides a cancelled "
                   "determinant by 1 - rho_12^2 ~ 2e-9")
@pytest.mark.parametrize("triple", _NEAR_EDGE[2:], ids=["rho_12", "rho_12-0.3"])
def test_grid_joint_term_next_to_rho12_one_is_exact(triple):
    joint = float(general_rate_terms_grid(GEN_POINT, *map(np.array, triple))[1])
    assert abs(joint - _exact_joint(GEN_POINT, triple)) <= 1e-12


def test_grid_matches_scalar_oracle_interior():
    axis = np.array([-0.6, -0.3, 0.0, 0.3, 0.6])
    r1, r2, r12 = np.meshgrid(axis, axis, axis, indexing="ij")
    main, joint, s1, s2 = (
        np.broadcast_to(t, r1.shape) for t in general_rate_terms_grid(GEN_POINT, r1, r2, r12)
    )
    worst = 0.0
    for i in range(axis.size):
        for j in range(axis.size):
            for k in range(axis.size):
                if correlation_determinant(axis[i], axis[j], axis[k]) < 0.0:
                    # values at infeasible combinations are unspecified
                    continue
                o = rate_general_oracle(
                    GEN_POINT, CorrelationTriple(axis[i], axis[j], axis[k])
                )
                worst = max(
                    worst,
                    abs(main[i, j, k] - o.main_rate),
                    abs(joint[i, j, k] - o.leak_joint),
                    abs(s1[i, j, k] - o.leak_single_1),
                    abs(s2[i, j, k] - o.leak_single_2),
                )
    assert worst <= 1e-9


def test_grid_boundary_points_stay_finite():
    # fully correlated corners have a singular input covariance; the grid
    # route must still return finite, non-negative terms there
    corners = np.array([
        [1.0, 1.0, 1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, -1.0],
        [0.0, 1.0, 0.0],
    ])
    main, joint, s1, s2 = general_rate_terms_grid(
        GEN_POINT, corners[:, 0], corners[:, 1], corners[:, 2]
    )
    for arr in (main, joint, s1, s2):
        assert np.all(np.isfinite(arr))
        assert np.all(arr >= 0.0)


@pytest.mark.parametrize("P_l", [0.0, 1.0, 20.0])
def test_grid_matches_reference_on_search_grid(P_l):
    # Every valid point of the fig3a search grid must match the oracle,
    # which must refuse none of them.  The oracle runs as one stack;
    # rate_general_oracle, the same computation on a stack of one, is
    # checked directly at the points on or next to the edge of the valid set.
    # One more point a hair from the all-ones corner, where the grid's
    # determinant cancels, gets a looser bound.  Infeasible points are not read.
    p = dataclasses.replace(load_config("fig3a").general, P_l=P_l)
    axis = correlation_grid_axis(0.05)
    grids = np.meshgrid(axis, axis, axis, indexing="ij")
    r1, r2, r12 = (np.append(g.ravel(), 1.0 - 1e-4) for g in grids)
    terms = [np.broadcast_to(t, r1.shape) for t in general_rate_terms_grid(p, r1, r2, r12)]
    det = correlation_determinant(r1, r2, r12)
    valid = det >= -PSD_SLACK
    bound = np.full(r1.size, 1e-12)
    bound[-1] = 1e-10

    reference = oracle._rate_general_oracles(
        oracle._param_rows(p), r1[valid], r2[valid], r12[valid])
    assert reference.shape == (39146, 4)
    for arr, value in zip(terms, reference.T):
        assert np.all(np.abs(arr[valid] - value) <= bound[valid])

    edge = np.flatnonzero(valid & (det < 1e-6))
    assert edge.size == 267 and edge[-1] == r1.size - 1
    for k in edge:
        o = rate_general_oracle(p, CorrelationTriple(r1[k], r2[k], r12[k]))
        err = max(abs(arr[k] - w) for arr, w in zip(terms, _terms(o)))
        assert err <= bound[k], (r1[k], r2[k], r12[k])


def test_grid_joint_leakage_next_to_rho12_minus_one():
    # Point-fine scenario 2 with jamming stripped, at a triple where the
    # determinant ratio is a cancelled 6.7e-16 over 4.4e-16 (1.5, not the
    # residual 0.654).  Conditioning on X_2e, almost -X_1e here, adds
    # nothing to conditioning on X_1e.
    p = GeneralGaussianParams(
        h_l=1.5680615545279275, h_1e_l=0.0, h_2e_l=0.0,
        h_l_1e=0.519466607956536, h_l_2e=0.41495778927001953,
        h_2e_1e=0.46551868440836525, h_1e_2e=0.47106149691352006,
        P_l=2.9248571223002573, P_1e=0.7104023156669221, P_2e=1.9180396732321934,
        N_l=0.9608154623398999, N_1e=0.8275659483781101, N_2e=0.9670013327469336,
    )
    rho = (-0.588, 0.5880000000000001, -0.9999999999999998)
    joint = general_rate_terms_grid(p, *map(np.array, rho))[1]
    gain = p.h_l_1e ** 2 / p.N_1e + p.h_l_2e ** 2 / p.N_2e
    want = 0.5 * math.log2(1.0 + p.P_l * (1.0 - rho[0] ** 2) * gain)
    assert abs(joint - want) <= 1e-12


def test_grid_preserves_input_shape():
    r1 = np.full((2, 5), 0.1)
    r2 = np.full((2, 5), -0.2)
    r12 = np.zeros((2, 5))
    main, joint, s1, s2 = general_rate_terms_grid(GEN_POINT, r1, r2, r12)
    for arr in (main, joint, s1, s2):
        assert arr.shape == (2, 5)
    # constant inputs give constant outputs
    assert np.ptp(main) == 0.0
    # broadcastable inputs give each term the shape its own correlations
    # broadcast to: single_1 reads rho_2, single_2 reads rho_1, with both
    # eavesdroppers silent the joint term reads none, and the main term reads
    # none only when neither eavesdropper jams
    for params, main_shape, joint_shape in (
        (GEN_POINT, (2, 5), (2, 5)),
        (dataclasses.replace(GEN_POINT, P_1e=0.0, P_2e=0.0), (), ()),
        (strip_jamming(GEN_POINT), (), (2, 5)),
        (dataclasses.replace(GEN_POINT, h_2e_l=0.0), (2, 5), (2, 5)),
    ):
        terms = general_rate_terms_grid(params, np.full((2, 1), 0.1), np.zeros((1, 5)), 0.0)
        assert [np.shape(arr) for arr in terms] == [main_shape, joint_shape, (1, 5), (2, 1)]


_FIG3A = load_config("fig3a").general


@pytest.mark.parametrize(
    "params",
    [
        dataclasses.replace(_FIG3A, P_l=0.0),
        dataclasses.replace(_FIG3A, P_l=1.0),
        dataclasses.replace(_FIG3A, P_l=20.0),
        dataclasses.replace(GEN_POINT, P_1e=0.0),
        dataclasses.replace(GEN_POINT, P_2e=0.0),
        dataclasses.replace(GEN_POINT, P_1e=0.0, P_2e=0.0),
        dataclasses.replace(GEN_POINT, P_l=0.0),
    ],
    ids=["fig3a-P_l-0", "fig3a-P_l-1", "fig3a-P_l-20",
         "P_1e-0", "P_2e-0", "P_1e-P_2e-0", "P_l-0"],
)
def test_grid_on_broadcast_views_equals_grid_on_meshgrid(params):
    # The search passes the axis as (k,1,1), (1,n,1), (1,1,n) views; every
    # value at a valid triple must equal the meshgrid evaluation.  In the
    # degenerate branches some terms depend on fewer correlations.
    axis = correlation_grid_axis(0.1)
    views = (axis[3:9, None, None], axis[None, :, None], axis[None, None, :])
    meshed = np.meshgrid(axis[3:9], axis, axis, indexing="ij")
    broadcast = general_rate_terms_grid(params, *views)
    full = general_rate_terms_grid(params, *meshed)
    valid = valid_correlation(*meshed)
    assert valid.any() and not valid.all()
    # the single leakages stay on their own axis
    assert broadcast[2].shape == (1, axis.size, 1)
    assert broadcast[3].shape == (6, 1, 1)
    for got, want in zip(broadcast, full):
        shape = (6, axis.size, axis.size)
        np.testing.assert_array_equal(
            np.broadcast_to(got, shape)[valid], np.broadcast_to(want, shape)[valid]
        )


@pytest.mark.parametrize(
    "params",
    [
        GEN_POINT,
        _FIG3A,
        dataclasses.replace(GEN_POINT, P_1e=0.0),
        dataclasses.replace(GEN_POINT, P_2e=0.0),
        dataclasses.replace(GEN_POINT, P_1e=0.0, P_2e=0.0),
    ],
    ids=["gen-point", "fig3a", "P_1e-0", "P_2e-0", "P_1e-P_2e-0"],
)
def test_grid_given_the_search_determinant_is_bit_identical(params):
    # The search hands the grid the determinant of its valid set.  On every
    # cell of the 0.05 grid, the |rho_12| = 1 rows and the invalid cells
    # included, the terms must equal, bit for bit, those of the grid
    # computing its own; with a zero power the grid must not read it.
    axis = correlation_grid_axis(0.05)
    views = (axis[:, None, None], axis[None, :, None], axis[None, None, :])
    shape = (axis.size,) * 3
    det = correlation_determinant(*views)
    assert det.shape == shape
    given = general_rate_terms_grid(params, *views, det.copy())
    own = general_rate_terms_grid(params, *views)
    for got, want in zip(given, own):
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(
            np.ascontiguousarray(np.broadcast_to(got, shape)).view(np.uint64),
            np.ascontiguousarray(np.broadcast_to(want, shape)).view(np.uint64),
        )


def swap_eavesdroppers(p: GeneralGaussianParams) -> GeneralGaussianParams:
    """``p`` with eavesdroppers 1 and 2 exchanging names."""
    return dataclasses.replace(
        p, h_1e_l=p.h_2e_l, h_2e_l=p.h_1e_l, h_l_1e=p.h_l_2e, h_l_2e=p.h_l_1e,
        h_2e_1e=p.h_1e_2e, h_1e_2e=p.h_2e_1e, P_1e=p.P_2e, P_2e=p.P_1e,
        N_1e=p.N_2e, N_2e=p.N_1e,
    )


# The gains into each output of the shared-band model, by its noise.
_OUTPUT_GAINS = {"N_l": ("h_l", "h_1e_l", "h_2e_l"),
                 "N_1e": ("h_l_1e", "h_2e_1e"), "N_2e": ("h_l_2e", "h_1e_2e")}


def rescale_output(p, noise: str, a: float, gains=_OUTPUT_GAINS):
    """``p`` with one output multiplied by ``a``: the gains into it by ``a``
    and its noise variance ``noise`` by a^2."""
    return dataclasses.replace(p, **{g: getattr(p, g) * a for g in gains[noise]},
                               **{noise: getattr(p, noise) * a * a})


# Points with every rate term positive, and with one or both eavesdropper
# powers 0, where the grid terms take their degenerate branches.
SYMMETRY_PARAMS = {
    "gen-point": GEN_POINT,
    **{f"draw-{k}": draw_general_params(AuditRng(k)) for k in range(3)},
    "P_1e-0": dataclasses.replace(GEN_POINT, P_1e=0.0),
    "P_1e-P_2e-0": dataclasses.replace(GEN_POINT, P_1e=0.0, P_2e=0.0),
    "no-jamming": strip_jamming(GEN_POINT),
}


def assert_same_rates(a, b, tol=1e-12):
    """Two sequences of rate terms agree to ``tol`` bits."""
    np.testing.assert_allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                               rtol=0.0, atol=tol)


def _terms(b):
    return b.main_rate, b.leak_joint, b.leak_single_1, b.leak_single_2


@pytest.mark.parametrize("name", SYMMETRY_PARAMS)
def test_rates_do_not_change_when_the_eavesdroppers_swap_names(name):
    # Swapping eavesdroppers 1 and 2, and rho_1 with rho_2, exchanges the two
    # single leakages and moves no other term, in the covariance route at
    # drawn triples and in the grid terms at every valid triple of the 0.1
    # grid.
    p = SYMMETRY_PARAMS[name]
    q = swap_eavesdroppers(p)
    rng = AuditRng(7)
    for rho in [draw_correlation(rng) for _ in range(20)] + [CorrelationTriple(0.3, 1.0, 0.3)]:
        main, joint, single_1, single_2 = _terms(rate_general_oracle(p, rho))
        swapped = rate_general_oracle(q, CorrelationTriple(rho.rho_2, rho.rho_1, rho.rho_12))
        assert_same_rates(_terms(swapped), (main, joint, single_2, single_1))

    axis = correlation_grid_axis(0.1)
    r1, r2, r12 = axis[:, None, None], axis[None, :, None], axis[None, None, :]
    valid = valid_correlation(r1, r2, r12)
    shape = valid.shape
    main, joint, single_1, single_2 = (np.broadcast_to(t, shape)[valid]
                                       for t in general_rate_terms_grid(p, r1, r2, r12))
    swapped = [np.broadcast_to(t, shape)[valid]
               for t in general_rate_terms_grid(q, r2, r1, r12)]
    for got, want in zip(swapped, (main, joint, single_2, single_1)):
        assert_same_rates(got, want)


@pytest.mark.parametrize("noise, a", [("N_l", 3.0), ("N_1e", 0.3), ("N_2e", 7.0)])
@pytest.mark.parametrize("name", SYMMETRY_PARAMS)
def test_rates_do_not_change_when_an_output_is_rescaled(name, noise, a):
    # An output times a, its gains times a and its noise variance times a^2,
    # carries the same information.
    p = SYMMETRY_PARAMS[name]
    q = rescale_output(p, noise, a)
    rng = AuditRng(11)
    for rho in [draw_correlation(rng) for _ in range(20)]:
        assert_same_rates(_terms(rate_general_oracle(q, rho)),
                          _terms(rate_general_oracle(p, rho)))
    axis = correlation_grid_axis(0.1)
    views = (axis[:, None, None], axis[None, :, None], axis[None, None, :])
    valid = valid_correlation(*views)
    for got, want in zip(general_rate_terms_grid(q, *views), general_rate_terms_grid(p, *views)):
        assert_same_rates(np.broadcast_to(got, valid.shape)[valid],
                          np.broadcast_to(want, valid.shape)[valid])
