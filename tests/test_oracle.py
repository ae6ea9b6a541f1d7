import dataclasses
import math

import numpy as np
import pytest

from wiretap_rates.audit import (
    AuditRng,
    draw_correlation,
    draw_general_params,
    draw_orthogonal_params,
)
from wiretap_rates import oracle
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
from wiretap_rates.gaussian import GeneralGaussianParams
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


def test_covariance_rejects_asymmetric_matrix():
    m = np.array([[1.0, 0.5], [0.3, 1.0]])
    with pytest.raises(DomainError, match="symmetric"):
        JointCovariance(("a", "b"), m)


def test_covariance_rejects_indefinite_matrix():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DomainError, match="positive semidefinite"):
        JointCovariance(("a", "b"), m)


@pytest.mark.parametrize(
    "entry, value, message",
    [((0, 3), 100.0, "positive semidefinite"), ((0, 1), None, "symmetric")],
    ids=["indefinite", "asymmetric"],
)
def test_stack_check_rejects_a_bad_last_matrix(entry, value, message):
    good = build_joint_covariance_general(GEN_POINT, ZERO_RHO).matrix
    stack = np.stack([good] * 3)
    oracle._check_covariances(stack)
    i, j = entry
    if value is None:
        # One off-diagonal entry moved, its mirror kept.
        stack[-1, i, j] += 1e-6
    else:
        stack[-1, i, j] = stack[-1, j, i] = value
    with pytest.raises(DomainError, match=message):
        oracle._check_covariances(stack)


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
    # Every valid point of the fig3a search grid must match the log-det
    # reference, which must refuse none of them.  The reference runs as one
    # stack; rate_general_oracle, the same computation on a stack of one, is
    # checked directly at the points on or next to the edge of the valid set.
    # One more point a hair from the all-ones corner is ill-conditioned for
    # both routes and gets a looser bound.  Infeasible points are not read.
    p = dataclasses.replace(load_config("fig3a").general, P_l=P_l)
    axis = correlation_grid_axis(0.05)
    grids = np.meshgrid(axis, axis, axis, indexing="ij")
    r1, r2, r12 = (np.append(g.ravel(), 1.0 - 1e-4) for g in grids)
    terms = [np.broadcast_to(t, r1.shape) for t in general_rate_terms_grid(p, r1, r2, r12)]
    det = correlation_determinant(r1, r2, r12)
    valid = det >= -PSD_SLACK
    bound = np.full(r1.size, 1e-12)
    bound[-1] = 1e-10

    stack = oracle._general_covariances([p], r1[valid], r2[valid], r12[valid])
    reference = oracle._cmi_terms(stack, oracle._GENERAL_TERMS)
    for arr, value in zip(terms, reference):
        assert value.size == 39146 and value.min() >= -oracle.NEG_TOL
        assert np.all(np.abs(arr[valid] - np.maximum(value, 0.0)) <= bound[valid])

    edge = np.flatnonzero(valid & (det < 1e-6))
    assert edge.size == 267 and edge[-1] == r1.size - 1
    for k in edge:
        o = rate_general_oracle(p, CorrelationTriple(r1[k], r2[k], r12[k]))
        want = (o.main_rate, o.leak_joint, o.leak_single_1, o.leak_single_2)
        err = max(abs(arr[k] - w) for arr, w in zip(terms, want))
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
    # broadcast to: single_1 reads rho_2, single_2 reads rho_1, and with both
    # eavesdroppers silent the joint term reads none
    for params, joint_shape in (
        (GEN_POINT, (2, 5)),
        (dataclasses.replace(GEN_POINT, P_1e=0.0, P_2e=0.0), ()),
    ):
        terms = general_rate_terms_grid(params, np.full((2, 1), 0.1), np.zeros((1, 5)), 0.0)
        assert [np.shape(arr) for arr in terms] == [(2, 5), joint_shape, (1, 5), (2, 1)]


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
