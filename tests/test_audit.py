import math

import pytest

from wiretap_rates import audit
from wiretap_rates.audit import (
    AUDIT_TOL,
    AuditRng,
    AuditRow,
    audit_general,
    audit_orthogonal,
    draw_correlation,
    draw_general_params,
    draw_orthogonal_params,
    format_report,
    rows_to_csv,
    run_audit,
)
from wiretap_rates.core import ZERO_RHO, valid_correlation as is_valid_correlation
from wiretap_rates.gaussian import single_eavesdropper_leakage
from wiretap_rates.oracle import rate_general_oracle, rate_orthogonal_oracle


def test_rng_reference_sequence():
    # frozen output of the stated congruential map for seed 1
    rng = AuditRng(1)
    assert rng.uniform() == 0.42320917087271326
    assert rng.uniform() == 0.5094074428837206
    assert rng.uniform() == 0.6483593939634306


def test_rng_reproducible_and_seed_sensitive():
    a = [AuditRng(9).uniform() for _ in range(5)]
    b = [AuditRng(9).uniform() for _ in range(5)]
    c = [AuditRng(10).uniform() for _ in range(5)]
    assert a == b
    assert a != c


def test_uniform_in_respects_bounds():
    rng = AuditRng(3)
    for _ in range(100):
        v = rng.uniform_in(-2.0, 2.0)
        assert -2.0 <= v <= 2.0


def test_orthogonal_draw_ranges():
    rng = AuditRng(5)
    for _ in range(20):
        p = draw_orthogonal_params(rng)
        for g in (p.h_l, p.h_1m, p.h_2m, p.h_1c, p.h_2c):
            assert 0.2 <= g <= 2.0
        for pw in (p.P_l, p.P_1e, p.P_2e):
            assert 0.1 <= pw <= 10.0
        for nv in (p.N_l, p.N_1e_m, p.N_2e_m, p.N_1e_c, p.N_2e_c):
            assert 0.5 <= nv <= 2.0


def test_general_draw_allows_signed_gains():
    rng = AuditRng(5)
    gains = []
    for _ in range(20):
        p = draw_general_params(rng)
        gains += [p.h_l, p.h_1e_l, p.h_2e_l, p.h_l_1e, p.h_l_2e,
                  p.h_2e_1e, p.h_1e_2e]
        assert all(-2.0 <= g <= 2.0 for g in gains[-7:])
    assert min(gains) < 0.0 < max(gains)


def test_draw_correlation_is_feasible():
    rng = AuditRng(11)
    for _ in range(50):
        t = draw_correlation(rng)
        assert is_valid_correlation(*t.as_tuple())


def test_audit_orthogonal_rows():
    rep = audit_orthogonal(seed=1, draws=3)
    assert len(rep.rows) == 15
    assert all(r.required for r in rep.rows)
    assert rep.passed
    assert rep.worst_required_error <= AUDIT_TOL
    names = {r.name for r in rep.rows}
    assert names == {
        "orthogonal/main", "orthogonal/joint", "orthogonal/single_1",
        "orthogonal/single_2", "orthogonal/secure",
    }


def test_audit_general_rows():
    rep = audit_general(seed=1, draws=4)
    assert len(rep.rows) == 36
    required = [r for r in rep.rows if r.required]
    info = [r for r in rep.rows if not r.required]
    # per draw: four zero-correlation terms and two single leakages
    assert len(required) == 24
    assert {r.name for r in info} == {"general/rho/main", "general/rho/joint",
                                      "general/rho/single_2_alt"}
    assert rep.passed


def test_audit_reports_the_rho2_both_reading_as_information():
    rep = audit_general(seed=3, draws=6)
    rng = AuditRng(3)
    draws = [(draw_general_params(rng), draw_correlation(rng)) for _ in range(6)]
    alt = [r for r in rep.rows if r.name == "general/rho/single_2_alt"]
    single_2 = [r for r in rep.rows if r.name == "general/rho/single_2"]
    assert [r.draw for r in alt] == list(range(6))
    for r, s, (p, rho) in zip(alt, single_2, draws):
        assert not r.required
        assert r.closed == single_eavesdropper_leakage(2, p, rho, rho2_both=True)
        assert r.oracle == s.oracle
    # The two readings differ wherever rho_1 != rho_2, and only the
    # covariance-consistent one is required.
    assert max(r.error for r in alt) > 1e-3


def test_audit_row_ok_semantics():
    ok_req = AuditRow(0, "x", 1.0, 1.0, 0.0, True)
    bad_req = AuditRow(0, "x", 1.0, 2.0, 1.0, True)
    nan_req = AuditRow(0, "x", math.nan, 1.0, math.nan, True)
    nan_info = AuditRow(0, "x", math.nan, 1.0, math.nan, False)
    assert ok_req.ok
    assert not bad_req.ok
    assert not nan_req.ok
    assert nan_info.ok


def test_run_audit_model_selection():
    both = run_audit(seed=2, draws=2)
    assert {r.name.split("/")[0] for r in both.rows} == {"orthogonal", "general"}


def test_rows_to_csv_shape():
    rep = run_audit(seed=2, draws=2)
    text = rows_to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "draw,term,closed,oracle,abs_error"
    assert len(lines) == len(rep.rows) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[2]), float(first[3])  # parseable at full precision


def test_rows_to_csv_is_deterministic():
    assert rows_to_csv(run_audit(seed=4, draws=2)) == \
        rows_to_csv(run_audit(seed=4, draws=2))


def test_format_report_verdict_line():
    rep = run_audit(seed=1, draws=2)
    text = format_report(rep)
    assert "PASS" in text.splitlines()[-1]
    verbose = format_report(rep, verbose=True)
    assert len(verbose.splitlines()) > len(text.splitlines())


def per_draw_oracle_rows(seed, draws):
    """(draw, term, oracle value) of every audit row, one oracle call each."""
    rows = []
    rng = AuditRng(seed)
    for i in range(draws):
        o = rate_orthogonal_oracle(draw_orthogonal_params(rng))
        for term, v in (("main", o.main_rate), ("joint", o.leak_joint),
                        ("single_1", o.leak_single_1), ("single_2", o.leak_single_2),
                        ("secure", o.secure_rate)):
            rows.append((i, f"orthogonal/{term}", v))
    rng = AuditRng(seed)
    for i in range(draws):
        p = draw_general_params(rng)
        rho = draw_correlation(rng)
        z, o = rate_general_oracle(p, ZERO_RHO), rate_general_oracle(p, rho)
        for term, v in (("zero/main", z.main_rate), ("zero/joint", z.leak_joint),
                        ("zero/single_1", z.leak_single_1),
                        ("zero/single_2", z.leak_single_2),
                        ("rho/single_1", o.leak_single_1),
                        ("rho/single_2", o.leak_single_2),
                        ("rho/single_2_alt", o.leak_single_2),
                        ("rho/main", o.main_rate), ("rho/joint", o.leak_joint)):
            rows.append((i, f"general/{term}", v))
    return rows


@pytest.mark.parametrize("rho2_both", [False, True])
def test_batched_audit_equals_per_draw_oracle_calls(rho2_both):
    draws = audit._BLOCK_DRAWS + 5
    rep = run_audit(seed=6, draws=draws)
    assert [(r.draw, r.name, r.oracle) for r in rep.rows] == \
        per_draw_oracle_rows(6, draws)
    # Each reading of eavesdropper 2's leak has its own row: single_2 is the
    # covariance-consistent one, single_2_alt the one that reuses rho_2.
    name = "general/rho/single_2_alt" if rho2_both else "general/rho/single_2"
    rng = AuditRng(6)
    expected = []
    for _ in range(draws):
        p = draw_general_params(rng)
        rho = draw_correlation(rng)
        expected.append(single_eavesdropper_leakage(2, p, rho, rho2_both=rho2_both))
    assert [r.closed for r in rep.rows if r.name == name] == expected


@pytest.mark.parametrize("block_draws", [1, 7])
def test_audit_is_independent_of_the_block_size(monkeypatch, block_draws):
    whole = rows_to_csv(run_audit(seed=8, draws=20))
    monkeypatch.setattr(audit, "_BLOCK_DRAWS", block_draws)
    assert rows_to_csv(run_audit(seed=8, draws=20)) == whole
