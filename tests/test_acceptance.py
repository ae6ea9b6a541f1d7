"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and prints
a single pass/fail line, so a plain ``pytest -v tests/test_acceptance.py``
reads as the acceptance protocol transcript.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from wiretap_rates.audit import (
    AuditRng,
    draw_correlation,
    draw_general_params,
    draw_orthogonal_params,
)
from wiretap_rates.cli import SweepSettings, load_config, sweep_table
from wiretap_rates.core import CorrelationTriple, ZERO_RHO, theta
from wiretap_rates.core import valid_correlation as is_valid_correlation
from wiretap_rates.discrete import (
    DMChannel,
    EavesdropperInputDist,
    LegitimateInputDist,
    build_orthogonal_dm,
    mutual_info_discrete,
    rate_dm_fixed,
    reduce_noncolluding,
    reduce_perfectcolluding,
    sup_inf_rate,
)
from wiretap_rates.gaussian import (
    rate_general_closed,
    rate_noncolluding,
    rate_orthogonal,
    rate_perfectcolluding,
    single_eavesdropper_leakage,
)
from wiretap_rates.optimize import (
    SearchConfig,
    minimize_rate,
    optimize_general,
)
from wiretap_rates.oracle import (
    build_joint_covariance_general,
    general_rate_terms_grid,
    mi_gaussian,
    rate_general_oracle,
    rate_orthogonal_oracle,
)


def _report(number: int, slug: str, ok: bool) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({slug}): {state}", flush=True)


class _criterion:
    """Context manager printing the pass/fail line for one criterion."""

    def __init__(self, number: int, slug: str):
        self.number = number
        self.slug = slug

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.number, self.slug, exc_type is None)
        return False


@pytest.fixture(scope="module")
def sweep_tables():
    tables = {}
    for name in ("fig3a", "fig3b"):
        cfg = load_config(name)
        xs, table = sweep_table(cfg)
        tables[name] = (xs, table)
    return tables


def test_criterion_01_orthogonal_equivalence():
    with _criterion(1, "orthogonal closed form vs covariance, 1000 draws"):
        rng = AuditRng(20240817)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            p = draw_orthogonal_params(rng)
            c = rate_orthogonal(p)
            o = rate_orthogonal_oracle(p)
            worst = max(
                worst,
                abs(c.main_rate - o.main_rate),
                abs(c.leak_joint - o.leak_joint),
                abs(c.leak_single_1 - o.leak_single_1),
                abs(c.leak_single_2 - o.leak_single_2),
                abs(c.secure_rate - o.secure_rate),
            )
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst term error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_general_equivalence():
    with _criterion(2, "shared-band closed form vs covariance"):
        rng = AuditRng(20240818)
        worst_zero = 0.0
        for _ in range(1000):
            p = draw_general_params(rng)
            c = rate_general_closed(p, ZERO_RHO)
            o = rate_general_oracle(p, ZERO_RHO)
            worst_zero = max(
                worst_zero,
                abs(c.main_rate - o.main_rate),
                abs(c.leak_joint - o.leak_joint),
                abs(c.leak_single_1 - o.leak_single_1),
                abs(c.leak_single_2 - o.leak_single_2),
            )
        assert worst_zero <= 1e-9, f"zero-correlation error {worst_zero:.3e}"

        worst_single = 0.0
        for _ in range(1000):
            p = draw_general_params(rng)
            t = draw_correlation(rng)
            cov = build_joint_covariance_general(p, t)
            sources = ["X_l", "X_1e", "X_2e"]
            for j, out in ((1, "Y_1e"), (2, "Y_2e")):
                closed = single_eavesdropper_leakage(j, p, t)
                worst_single = max(
                    worst_single, abs(closed - mi_gaussian(cov, sources, [out]))
                )
        assert worst_single <= 1e-9, f"single-leakage error {worst_single:.3e}"


def test_criterion_03_orthogonal_reductions():
    with _criterion(3, "silent and high-power eavesdropper limits"):
        rng = AuditRng(20240819)
        for _ in range(100):
            p = draw_orthogonal_params(rng)
            silent = replace(p, P_1e=0.0, P_2e=0.0)
            assert rate_orthogonal(silent).secure_rate == rate_noncolluding(p)
            loud = replace(p, P_1e=1e9, P_2e=1e9)
            gap = abs(
                rate_orthogonal(loud).secure_rate - rate_perfectcolluding(p)
            )
            assert gap <= 1e-6, f"high-power gap {gap:.3e}"


def test_criterion_04_optimizer_drives_strong_jamming_secure_rate_to_zero():
    with _criterion(4, "worst-case coordination under unbounded helper power"):
        cfg = load_config("fig3a")
        p = replace(cfg.general, P_1e=1e9, P_2e=1e9)
        _, res = optimize_general(p, cfg.optimizer)
        assert res.rate.secure_rate <= 1e-6, (
            f"secure rate {res.rate.secure_rate:.3e} at {res.rho_star.as_tuple()}"
        )


def test_criterion_05_rate_ordering(sweep_tables):
    with _criterion(5, "perfect collusion <= constrained <= no collusion"):
        for name in ("fig3a", "fig3b"):
            _, table = sweep_tables[name]
            for pc, og, nc in zip(table["R_pc"], table["R_og"], table["R_nc"]):
                assert pc <= og + 1e-12
                assert og <= nc + 1e-12
        rng = AuditRng(20240820)
        for _ in range(1000):
            p = draw_orthogonal_params(rng)
            og = rate_orthogonal(p).secure_rate
            assert rate_perfectcolluding(p) <= og + 1e-12
            assert og <= rate_noncolluding(p) + 1e-12


def test_criterion_05_strict_ordering_where_rates_are_positive():
    # fig3a and fig3b are zero in every column (h_l equals every listening
    # gain there), so the orderings above hold as 0 <= 0.  With h_l = 2
    # every rate is positive and each ordering is strict.
    with _criterion(5, "strict orderings on fig3a with h_l = 2"):
        cfg = load_config("fig3a")
        cfg = replace(
            cfg,
            orthogonal=replace(cfg.orthogonal, h_l=2.0),
            general=replace(cfg.general, h_l=2.0),
            sweep=SweepSettings("P_l", 0.5, 10.0, 0.5),
        )
        xs, table = sweep_table(cfg)
        for i, x in enumerate(xs):
            row = {c: v[i] for c, v in table.items()}
            assert min(row.values()) > 0.0, f"P_l {x}: {row}"
            assert row["R_pc"] < row["R_og"] < row["R_nc"], f"P_l {x}: {row}"


def test_criterion_06_constrained_vs_nonjamming_orderings(sweep_tables):
    with _criterion(6, "bundled sweep orderings of R_og and R_njg"):
        _, a = sweep_tables["fig3a"]
        for og, njg in zip(a["R_og"], a["R_njg"]):
            assert og >= njg
        _, b = sweep_tables["fig3b"]
        for og, njg in zip(b["R_og"], b["R_njg"]):
            assert og <= njg + 1e-9


def test_criterion_07_degraded_bsc_sup_inf():
    with _criterion(7, "degraded binary channel sup-inf rate"):
        cfg = load_config("dm_bsc")
        start = time.perf_counter()
        res = sup_inf_rate(cfg.dm_channel, 0.05)
        elapsed = time.perf_counter() - start
        assert abs(res.rate - 0.4123) <= 0.02, f"rate {res.rate:.6f}"
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_08_dm_reductions():
    with _criterion(8, "discrete collusion extremes bracket the constrained channel"):
        def bsc(p):
            return np.array([[1 - p, p], [p, 1 - p]])

        main = np.einsum("al,bl,cl->abcl", bsc(0.1), bsc(0.3), bsc(0.3))
        cfg = load_config("dm_bsc")
        nc_rate = sup_inf_rate(reduce_noncolluding(cfg.dm_channel), 0.05).rate
        pc_rate = sup_inf_rate(reduce_perfectcolluding(main), 0.05).rate
        assert pc_rate <= nc_rate + 1e-12
        def h2(p):
            return -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        direct = h2(0.3) - h2(0.1)
        assert abs(nc_rate - direct) <= 0.02, f"nc {nc_rate:.4f} vs {direct:.4f}"

        # 2x2x2 inputs: each eavesdropper hears the other's input through a
        # BSC collusion tap, so the inner minimization is not trivial.
        main = np.einsum("al,bl,cl->abcl", bsc(0.0814529893346886),
                         bsc(0.2848376476115765), bsc(0.2573006997984823))
        taps = np.einsum("ab,cd->acdb", bsc(0.1798911899110049),
                         bsc(0.4447534225762359))
        ch = build_orthogonal_dm(main, taps)
        step = 1.0 / 3.0
        r_pc = sup_inf_rate(reduce_perfectcolluding(main), step).rate
        r_c = sup_inf_rate(ch, step).rate
        # The point mass at (0, 0) is on the inner grid, so r_c <= r_nc.
        r_nc = sup_inf_rate(reduce_noncolluding(ch), step).rate
        assert r_c - r_pc > 0.01 and r_nc - r_c > 0.01, (
            f"R_pc {r_pc:.4f}, R_constrained {r_c:.4f}, R_nc {r_nc:.4f}"
        )


def test_criterion_09_optimizer_matches_exhaustive_reference():
    with _criterion(9, "grid-plus-descent vs exhaustive fine grid, 20 objectives"):
        rng = AuditRng(20240821)
        fine = SearchConfig(coarse_resolution=0.01, refine_iterations=0)
        default = SearchConfig()
        for k in range(20):
            p = draw_general_params(rng)
            _, res = optimize_general(p, default)

            def grid_terms(r1, r2, r12, det):
                # The grid computes its own determinant, independently of the
                # search's.
                return general_rate_terms_grid(p, r1, r2, r12)

            ref = minimize_rate(grid_terms, lambda r1, r2: 0.0, fine)
            diff = abs(res.rate.secure_rate - ref.rate.secure_rate)
            assert diff <= 1e-3, (
                f"draw {k}: optimizer {res.rate.secure_rate:.6f}, "
                f"reference {ref.rate.secure_rate:.6f}"
            )
            assert is_valid_correlation(*res.rho_star.as_tuple())
            if k < 3:
                _, again = optimize_general(p, default)
                assert again.rho_star.as_tuple() == res.rho_star.as_tuple()
                assert again.rate.secure_rate == res.rate.secure_rate


def test_criterion_10_information_identities():
    with _criterion(10, "information-measure property suites"):
        rng = AuditRng(20240822)
        for _ in range(500):
            p = draw_general_params(rng)
            t = draw_correlation(rng)
            cov = build_joint_covariance_general(p, t)
            lhs = mi_gaussian(cov, ["X_l"], ["Y_1e", "Y_2e"])
            rhs = mi_gaussian(cov, ["X_l"], ["Y_1e"]) + mi_gaussian(
                cov, ["X_l"], ["Y_2e"], ["Y_1e"]
            )
            assert abs(lhs - rhs) <= 1e-9
            assert lhs >= 0.0 and rhs >= 0.0

        gen = np.random.default_rng(20240822)
        for _ in range(500):
            joint = gen.random((2, 3, 2, 2))
            joint /= joint.sum()
            lhs = mutual_info_discrete(joint, [0], [1, 2])
            rhs = mutual_info_discrete(joint, [0], [1]) + mutual_info_discrete(
                joint, [0], [2], [1]
            )
            assert abs(lhs - rhs) <= 1e-12
            assert lhs >= 0.0
            assert mutual_info_discrete(joint, [0], [3], [1, 2]) >= 0.0

        for _ in range(500):
            a = rng.uniform_in(0.0, 1e6)
            b = rng.uniform_in(0.0, 1e6)
            lo, hi = sorted((a, b))
            assert theta(hi) >= theta(lo)

        worst = 0.0
        for _ in range(500):
            p = draw_orthogonal_params(rng)
            c = rng.uniform_in(0.1, 100.0)
            scaled = type(p)(**{
                f: getattr(p, f) * (c if f.startswith(("P", "N")) else 1.0)
                for f in p.__dataclass_fields__
            })
            worst = max(
                worst,
                abs(
                    rate_orthogonal(p).secure_rate
                    - rate_orthogonal(scaled).secure_rate
                ),
            )
        assert worst <= 1e-9, f"scale-invariance error {worst:.3e}"
