import hashlib
import io
import math

import numpy as np
import pytest

from wiretap_rates import audit
from wiretap_rates.audit import (
    AUDIT_TOL,
    AuditReport,
    AuditRng,
    AuditTable,
    audit_general,
    audit_orthogonal,
    draw_correlation,
    draw_general_params,
    draw_orthogonal_params,
    format_report,
    rows_to_csv,
    run_audit,
)
from wiretap_rates.core import ZERO_RHO, CorrelationTriple, valid_correlation as is_valid_correlation
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
    table = audit_orthogonal(seed=1, draws=3)
    assert table.closed.shape == table.oracle.shape == (3, 5)
    assert table.names == (
        "orthogonal/main", "orthogonal/joint", "orthogonal/single_1",
        "orthogonal/single_2", "orthogonal/secure",
    )
    assert all(table.required)
    rep = AuditReport(1, 3, (table,))
    assert rep.row_count == 15
    assert rep.passed
    assert rep.worst_required_error <= AUDIT_TOL


def test_audit_general_rows():
    table = audit_general(seed=1, draws=4)
    assert table.closed.shape == table.oracle.shape == (4, 9)
    # per draw: four zero-correlation terms and two single leakages
    assert sum(table.required) == 6
    info = {n for n, req in zip(table.names, table.required) if not req}
    assert info == {"general/rho/main", "general/rho/joint",
                    "general/rho/single_2_alt"}
    assert AuditReport(1, 4, (table,)).passed


def test_audit_reports_the_rho2_both_reading_as_information():
    table = audit_general(seed=3, draws=6)
    rng = AuditRng(3)
    draws = [(draw_general_params(rng), draw_correlation(rng)) for _ in range(6)]
    alt = table.names.index("general/rho/single_2_alt")
    single_2 = table.names.index("general/rho/single_2")
    assert not table.required[alt]
    # The reading with rho_2 in place of rho_1: eavesdropper 2's leakage at
    # the triple (rho_2, rho_2, 1).
    assert table.closed[:, alt].tolist() == [
        single_eavesdropper_leakage(2, p, CorrelationTriple(rho.rho_2, rho.rho_2, 1.0))
        for p, rho in draws
    ]
    assert table.oracle[:, alt].tolist() == table.oracle[:, single_2].tolist()
    # The two readings differ wherever rho_1 != rho_2, and only the
    # covariance-consistent one is required.
    assert table.error[:, alt].max() > 1e-3


def _one_cell(closed, required, name="x"):
    return AuditTable((name,), (required,), np.array([[closed]]), np.array([[1.0]]))


def test_audit_pass_rule():
    fine = _one_cell(1.0 + AUDIT_TOL / 2, True)
    assert AuditReport(0, 1, (fine,)).passed
    assert not AuditReport(0, 1, (_one_cell(2.0, True),)).passed
    assert AuditReport(0, 1, (_one_cell(1.0, True), _one_cell(1.0, False))).passed
    # No required cell at all: nothing to fail.
    empty = AuditReport(0, 1, (_one_cell(5.0, False),))
    assert empty.worst_required_error == 0.0 and empty.passed
    # An undefined required cell fails whichever table holds it ...
    undefined = _one_cell(math.nan, True, "undefined")
    for tables in ((undefined, fine), (fine, undefined)):
        rep = AuditReport(0, 1, tables)
        assert math.isnan(rep.worst_required_error)
        assert not rep.passed
        assert "FAIL" in report_text(rep).splitlines()[-1]
        verbose = report_text(rep, verbose=True).splitlines()
        assert [ln.endswith("FAIL") for ln in verbose[1:3]] == \
            [t is undefined for t in tables]
    # ... and an undefined informational cell passes.
    rep = AuditReport(0, 1, (fine, _one_cell(math.nan, False, "info")))
    assert rep.worst_required_error <= AUDIT_TOL and rep.passed
    verbose = report_text(rep, verbose=True).splitlines()
    assert verbose[2].endswith("[info] ok")
    assert "undefined at 1/1 draws" in verbose[3]


def test_audit_pass_rule_bound():
    assert audit._passes(AUDIT_TOL) and audit._passes(1e-10)
    assert not audit._passes(1e-8)


def test_default_audit_leaves_headroom_below_its_tolerance():
    # On 1,000 draws of the default seed the required terms agree to 1.5e-14,
    # 5 orders of magnitude inside AUDIT_TOL; the bound leaves about 3x room.
    assert run_audit(12345, 1000).worst_required_error <= 5e-14


def test_run_audit_model_selection():
    both = run_audit(seed=2, draws=2)
    assert [{n.split("/")[0] for n in t.names} for t in both.tables] == \
        [{"orthogonal"}, {"general"}]
    assert [t.closed.shape[0] for t in both.tables] == [2, 2]


def csv_text(report):
    """What rows_to_csv writes for ``report``."""
    out = io.StringIO()
    rows_to_csv(report, out)
    return out.getvalue()


def report_text(report, verbose=False):
    """What format_report writes for ``report``."""
    out = io.StringIO()
    format_report(report, out, verbose)
    return out.getvalue()


def test_rows_to_csv_shape():
    rep = run_audit(seed=2, draws=2)
    text = csv_text(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "draw,term,closed,oracle,abs_error"
    assert len(lines) == rep.row_count + 1 == 1 + 2 * 14
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[2]), float(first[3])  # parseable at full precision
    # Family by family, then draw by draw, then term by term.
    ortho, general = rep.tables
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        [str(i), n] for t in (ortho, general) for i in range(2) for n in t.names
    ]


def test_rows_to_csv_is_deterministic():
    assert csv_text(run_audit(seed=4, draws=2)) == csv_text(run_audit(seed=4, draws=2))


def test_format_report_writes_each_line_as_it_is_made():
    rep = run_audit(seed=1, draws=2)

    class Lines(io.StringIO):
        writes = 0

        def write(self, text):
            assert text.endswith("\n") and text.count("\n") == 1, text
            self.writes += 1
            return super().write(text)

    out = Lines()
    format_report(rep, out, verbose=True)
    # Header, one line per cell, one summary line per column, verdict.
    assert out.writes == 1 + rep.row_count + 14 + 1
    assert out.getvalue() == report_text(rep, verbose=True)


def test_format_report_verdict_line():
    rep = run_audit(seed=1, draws=2)
    text = report_text(rep)
    assert "PASS" in text.splitlines()[-1]
    verbose = report_text(rep, verbose=True)
    assert len(verbose.splitlines()) > len(text.splitlines())


def per_draw_oracle_rows(seed, draws):
    """(draw, term, oracle value) of every audit cell, one oracle call each."""
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
    assert [(i, name, t.oracle[i, j]) for t in rep.tables for i in range(draws)
            for j, name in enumerate(t.names)] == per_draw_oracle_rows(6, draws)
    # Each reading of eavesdropper 2's leak has its own column: single_2 is
    # the covariance-consistent one, single_2_alt the one that reuses rho_2,
    # which is single_2 at the triple (rho_2, rho_2, 1).
    name = "general/rho/single_2_alt" if rho2_both else "general/rho/single_2"
    rng = AuditRng(6)
    expected = []
    for _ in range(draws):
        p = draw_general_params(rng)
        rho = draw_correlation(rng)
        if rho2_both:
            rho = CorrelationTriple(rho.rho_2, rho.rho_2, 1.0)
        expected.append(single_eavesdropper_leakage(2, p, rho))
    general = rep.tables[1]
    assert general.closed[:, general.names.index(name)].tolist() == expected


@pytest.mark.parametrize("block_draws", [1, 7, 128, 129])
def test_audit_is_independent_of_the_block_size(monkeypatch, block_draws):
    whole = csv_text(run_audit(seed=8, draws=20))
    monkeypatch.setattr(audit, "_BLOCK_DRAWS", block_draws)
    assert csv_text(run_audit(seed=8, draws=20)) == whole


@pytest.mark.parametrize("block_draws", [129, 300])
def test_audit_blocks_of_any_size_split_the_same_stream(monkeypatch, block_draws):
    # 300 draws: blocks of 128 end at 128 and 256, of 129 at 129 and 258,
    # and of 300 nowhere.
    default = csv_text(run_audit(seed=8, draws=300))
    monkeypatch.setattr(audit, "_BLOCK_DRAWS", block_draws)
    assert csv_text(run_audit(seed=8, draws=300)) == default


def draws_one_at_a_time(rng, k, ranges, triple):
    """k draws one uniform at a time: the fields, then a triple by rejection."""
    draws = []
    for _ in range(k):
        fields = [rng.uniform_in(lo, hi) for lo, hi in ranges]
        while triple:
            rho = [rng.uniform_in(-1.0, 1.0) for _ in range(3)]
            if is_valid_correlation(*rho):
                fields += rho
                break
        draws.append(fields)
    return draws


def draws_in_one_block(rng, k, ranges, triple):
    params, rhos = audit._draw(rng, k, ranges, triple)
    return np.hstack([params, rhos] if triple else [params]).tolist()


@pytest.mark.parametrize("seed", [0, -5, 2**64 - 1, 12345])
def test_block_draws_follow_the_scalar_map(seed):
    ref = AuditRng(seed)
    states = audit._states(AuditRng(seed).state, 1000)
    assert audit._uniforms(states).tolist() == [ref.uniform() for _ in range(1000)]
    assert int(states[-1]) == ref.state
    for ranges, triple in ((audit._ORTHOGONAL_RANGES, False),
                           (audit._GENERAL_RANGES, True), ((), True)):
        rng, ref = AuditRng(seed), AuditRng(seed)
        # Two blocks in a row: each starts where the one before stopped.
        for k in (5, 3):
            block = draws_in_one_block(rng, k, ranges, triple)
            assert block == draws_one_at_a_time(ref, k, ranges, triple)
            assert rng.state == ref.state


def test_a_block_extends_its_buffer_when_rejections_run_past_it(monkeypatch):
    # Seed 10's first 16 shared-band draws need more triple candidates than
    # the first buffer of 16 * 19 uniforms holds, so it is extended once.
    sizes = []
    states = audit._states
    monkeypatch.setattr(audit, "_states", lambda s, n: sizes.append(n) or states(s, n))
    rng, ref = AuditRng(10), AuditRng(10)
    draws = draws_in_one_block(rng, 16, audit._GENERAL_RANGES, True)
    assert sizes == [16 * 19, 16 * 19]
    assert draws == draws_one_at_a_time(ref, 16, audit._GENERAL_RANGES, True)
    assert rng.state == ref.state


# SHA-256 of float.hex of every value of the first 1,000 draws at seed
# 12345, parameters then triple, draw by draw.  The draws take IEEE basic
# operations only, so these hold on any CPU.
DRAW_STREAM_SHA256 = {
    "orthogonal": "8e1c0d5eeff9070aea15cf23a3c6cde604c1a15923cbe9e480953f168353dc7e",
    "general": "2b65f79cb99013e85570f7ad24d0c1a9ae098845ee23447b1e1d9f6d83496a44",
}


@pytest.mark.parametrize("family", list(DRAW_STREAM_SHA256))
def test_draw_stream_is_pinned(family):
    ranges, triple = {"orthogonal": (audit._ORTHOGONAL_RANGES, False),
                      "general": (audit._GENERAL_RANGES, True)}[family]
    draws = draws_in_one_block(AuditRng(12345), 1000, ranges, triple)
    text = ",".join(v.hex() for draw in draws for v in draw)
    assert hashlib.sha256(text.encode()).hexdigest() == DRAW_STREAM_SHA256[family]


def test_the_printed_form_is_undefined_at_473_of_1000_draws():
    # Each of the printed form's sign checks (main-term numerator and
    # denominator, joint residual) clears zero by at least 1.6e-4 of its
    # terms' scale at every one of these draws, far above the round-off of
    # any C library's pow or sqrt, so the count holds on any CPU.
    lines = report_text(run_audit(seed=12345, draws=1000)).splitlines()
    for name in ("general/rho/main", "general/rho/joint"):
        (line,) = [ln for ln in lines if ln.split()[0] == name]
        assert line.endswith("[info], undefined at 473/1000 draws")
