"""Mutation probe: each listed mutant of the package must fail its named tests.

A mutant is one exact text replacement in one file under
``src/wiretap_rates``, with the Tier-1 test ids that must fail under it.  The
probe copies ``src/``, ``tests/`` and ``pyproject.toml`` of this checkout to
a temporary directory, checks that every named test passes there unmutated,
then applies one mutant at a time, runs only that mutant's tests, and
restores the file.  The directory is removed at the end.

It exits 1 when a mutant's old text does not occur exactly once in its file
(a refactor must carry its mutants along), or when a named test still passes
under its mutant (the mutant survives).  The list only grows: a mutant goes
only with the code it mutates.

Run from the repository root or anywhere else:

    python tests/mutants.py

pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/wiretap_rates
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_TERMS_TESTS = tuple(
    f"tests/test_oracle.py::test_rate_terms_read_as_the_paper_states_them[{family}]"
    for family in ("general", "orthogonal", "discrete")
)

MUTANTS = (
    # The four information terms, stated once in core.
    Mutant(
        "rate_terms: eavesdropper outputs swapped between the single leakages",
        "core.py",
        "        (inputs, y_1e, ()),\n        (inputs, y_2e, ()),",
        "        (inputs, y_2e, ()),\n        (inputs, y_1e, ()),",
        _TERMS_TESTS,
    ),
    Mutant(
        "rate_terms: the joint leakage loses its (X_1e, X_2e) conditioning",
        "core.py",
        "((0,), y_1e + y_2e, (1, 2)),",
        "((0,), y_1e + y_2e, ()),",
        _TERMS_TESTS,
    ),
    # The command line.
    Mutant(
        "cli._report prints the kind before evaluating",
        "cli.py",
        '    row, res = _evaluate(cfg)\n    print(f"kind: {cfg.kind}")\n',
        '    print(f"kind: {cfg.kind}")\n    row, res = _evaluate(cfg)\n',
        ("tests/test_cli.py::test_dm_over_budget_exits_with_one_line",
         "tests/test_cli.py::test_descent_over_budget_exits_before_the_grid"),
    ),
    Mutant(
        "DMSettings accepts max_evaluations = 0",
        "cli.py",
        "if self.max_evaluations < 1:",
        "if self.max_evaluations < 0:",
        ("tests/test_cli.py::test_dm_budget_below_one_is_config_error[0]",),
    ),
    Mutant(
        "integer config values read through a float",
        "cli.py",
        "        return int(value)\n",
        "        return int(float(value))\n",
        ("tests/test_cli.py::test_integer_fields_keep_every_digit[9007199254740993]",),
    ),
    # The cap on the sup-inf budget.
    Mutant(
        "sup_inf_rate accepts any max_evaluations",
        "discrete.py",
        "    if max_evaluations > MAX_GRID_POINTS:\n"
        '        raise GridBudgetError(f"max_evaluations may be at most {MAX_GRID_POINTS}")\n',
        "",
        ("tests/test_discrete.py::"
         "test_sup_inf_refuses_a_budget_above_the_cap_before_any_grid",
         "tests/test_cli.py::test_dm_budget_above_the_cap_exits_with_one_line[1e300]"),
    ),
    Mutant(
        "sup_inf_rate refuses a budget of MAX_GRID_POINTS itself",
        "discrete.py",
        "if max_evaluations > MAX_GRID_POINTS:",
        "if max_evaluations >= MAX_GRID_POINTS:",
        ("tests/test_discrete.py::"
         "test_sup_inf_refuses_a_budget_above_the_cap_before_any_grid",),
    ),
    # Tolerances, each loosened 1000x.
    Mutant(
        "pmf normalization bound 1e-9 -> 1e-6",
        "discrete.py",
        "if error > 1e-9:",
        "if error > 1e-6:",
        ("tests/test_discrete.py::test_input_law_normalization_bound",),
    ),
    Mutant(
        "covariance eigenvalue bound -1e-10 -> -1e-7",
        "oracle.py",
        "< -1e-10 * scale",
        "< -1e-7 * scale",
        ("tests/test_oracle.py::"
         "test_covariance_check_parts_round_off_from_a_negative_eigenvalue",),
    ),
    Mutant(
        "NEG_TOL 1e-9 -> 1e-6",
        "oracle.py",
        "NEG_TOL = 1e-9",
        "NEG_TOL = 1e-6",
        ("tests/test_oracle.py::test_negative_round_off_is_truncated_only_down_to_neg_tol",),
    ),
    Mutant(
        "PSD_SLACK 1e-12 -> 1e-9",
        "core.py",
        "PSD_SLACK = 1e-12",
        "PSD_SLACK = 1e-9",
        ("tests/test_core.py::test_psd_slack_bounds_the_determinant",),
    ),
    Mutant(
        "pmf negative-entry bound _SUM_TOL 1e-12 -> 1e-9",
        "discrete.py",
        "_SUM_TOL = 1e-12",
        "_SUM_TOL = 1e-9",
        ("tests/test_discrete.py::test_input_law_refuses_a_negative_entry_past_round_off",),
    ),
    Mutant(
        "covariance symmetry bound 1e-12 -> 1e-9 of scale",
        "oracle.py",
        "> 1e-12 * scale:",
        "> 1e-9 * scale:",
        ("tests/test_oracle.py::test_covariance_check_refuses_an_asymmetry_past_round_off",),
    ),
    Mutant(
        "conditional mutual information bound -1e-10 -> -1e-7",
        "discrete.py",
        "if (value < -1e-10).any():",
        "if (value < -1e-7).any():",
        ("tests/test_discrete.py::test_cmi_round_off_is_truncated_only_down_to_its_bound[-2e-10-None]",),
    ),
    Mutant(
        "whitened output covariances with non-finite entries reach LAPACK",
        "oracle.py",
        "        if not np.isfinite(gram).all():",
        "        if False:",
        tuple(f"tests/test_oracle.py::test_oracle_refuses_a_covariance_past_the_float_range"
              f"[{family}-1e+160]" for family in ("general", "orthogonal")),
    ),
    # The oracle's whitened route.
    Mutant(
        "a silent input's correlations are not zeroed",
        "oracle.py",
        "    live = powers > 0.0",
        "    live = powers >= 0.0",
        ("tests/test_oracle.py::test_degenerate_powers_evaluate_to_limits",),
    ),
    Mutant(
        "rows S of F_S are not set to 0",
        "oracle.py",
        "    out[:, given, :] = 0.0\n",
        "",
        # The orthogonal family's G is the identity, so its rows S project
        # out to exact zeros and only the shared band can show this.
        ("tests/test_oracle.py::test_oracle_keeps_its_precision_at_high_snr[general-1e3-1e5]",),
    ),
    Mutant(
        "the second kept direction dropped",
        "oracle.py",
        "    for u in kept:\n        u = u[:, np.newaxis, :]\n",
        "    for u in kept[:1]:\n        u = u[:, np.newaxis, :]\n",
        ("tests/test_oracle.py::test_oracle_keeps_full_precision_next_to_the_edge[rho_2]",
         "tests/test_oracle.py::test_grid_matches_scalar_oracle_interior",
         "tests/test_oracle.py::test_oracle_follows_the_grid_at_the_audits_drawn_triples"),
    ),
    Mutant(
        "a round-off residual kept as a direction",
        "oracle.py",
        "where=norm > cut)",
        "where=norm > 0.0)",
        ("tests/test_oracle.py::test_grid_matches_reference_on_search_grid[1.0]",),
    ),
    Mutant(
        "the second row not orthogonalised against the first",
        "oracle.py",
        "        for u in kept:\n            row = row - dot(row, u)[:, np.newaxis] * u\n",
        "",
        ("tests/test_oracle.py::test_projection_equals_the_svd_projector",
         "tests/test_oracle.py::test_oracle_follows_the_grid_at_the_audits_drawn_triples"),
    ),
    Mutant(
        "AUDIT_TOL 1e-9 -> 1e-6",
        "audit.py",
        "AUDIT_TOL = 1e-9",
        "AUDIT_TOL = 1e-6",
        ("tests/test_audit.py::test_audit_pass_rule_bound",),
    ),
    # The correlation search.
    Mutant(
        "no coordinate descent after the grid",
        "optimize.py",
        "for _ in range(cfg.refine_iterations):",
        "for _ in range(0):",
        ("tests/test_optimize.py::test_minimize_refines_off_grid_minimum",
         "tests/test_cli.py::test_fig3a_hl2_sweep_equals_its_committed_csv"),
    ),
    Mutant(
        "the coarse grid at twice the configured step",
        "optimize.py",
        "m = max(2, 2 * round(min(1.0 / resolution, MAX_GRID_POINTS)))",
        "m = max(2, 2 * round(min(0.5 / resolution, MAX_GRID_POINTS)))",
        ("tests/test_optimize.py::test_grid_axis_snaps_resolution",
         "tests/test_cli.py::test_fig3a_hl2_sweep_equals_its_committed_csv"),
    ),
    Mutant(
        "descent accepts moves that only tie",
        "optimize.py",
        "if rates[k] < best[0]:",
        "if rates[k] <= best[0]:",
        ("tests/test_optimize.py::"
         "test_broadcast_walk_matches_materialized_walk[flat-default]",
         "tests/test_optimize.py::test_optimize_general_pinned_results[scenario-23-no-jamming]"),
    ),
    Mutant(
        "descent goes on from a rate of 0",
        "optimize.py",
        "                if best[0] == 0.0:\n                    return best, evaluations\n",
        "",
        ("tests/test_optimize.py::test_no_descent_runs_from_a_grid_minimum_of_0[interior]",),
    ),
    Mutant(
        "descent stops at a rate below the tolerance, not only at 0",
        "optimize.py",
        "best[0] == 0.0",
        "best[0] < cfg.tolerance",
        ("tests/test_optimize.py::test_descent_moves_from_a_grid_minimum_below_tolerance",),
    ),
    Mutant(
        "a second descent from off the edges after an edge start at 0",
        "optimize.py",
        "best_off_edge != _NO_CELL and grid_min[0] > 0.0",
        "best_off_edge != _NO_CELL",
        ("tests/test_optimize.py::test_no_descent_runs_from_a_grid_minimum_of_0[edge]",),
    ),
    Mutant(
        "no second descent from off the edges",
        "optimize.py",
        "        starts.append(_grid_point(axis, best_off_edge))",
        "        pass",
        ("tests/test_optimize.py::"
         "test_minimize_refines_off_edge_when_grid_minimum_is_on_an_edge",),
    ),
    Mutant(
        "the last strictly smallest grid chunk wins a tie",
        "optimize.py",
        "best = min(best, whole)",
        "best = whole if whole[0] <= best[0] else best",
        ("tests/test_optimize.py::test_broadcast_walk_matches_materialized_walk[flat-1]",),
    ),
    Mutant(
        "the last least line of a chunk wins a tie",
        "optimize.py",
        "int(flat[rates == least].min())",
        "int(flat[rates == least].max())",
        ("tests/test_optimize.py::test_broadcast_walk_matches_materialized_walk[flat-default]",),
    ),
    # The early stop of the coarse walk and the line bounds it reads.
    Mutant(
        "the main term's bound taken at the wrong end of the rho_12 interval",
        "oracle.py",
        "end *= np.sign(2.0 * j1 * j2)",
        "end *= -np.sign(2.0 * j1 * j2)",
        ("tests/test_optimize.py::test_line_bounds_hold_on_every_valid_cell[pool-16]",
         "tests/test_optimize.py::test_line_bounds_hold_on_every_valid_cell[gen-point]"),
    ),
    Mutant(
        "a rate of 0 rules out every line, not only those after it in C order",
        "optimize.py",
        "return not open_zero[:flat // n].any()",
        "return True",
        ("tests/test_optimize.py::test_a_zero_found_first_leaves_the_lines_before_it_open",),
    ),
    Mutant(
        "a rate of 0 reads only the next line in visit order",
        "optimize.py",
        "return not open_zero[:flat // n].any()",
        "return not (open_zero[order[start]] and order[start] < flat // n)",
        ("tests/test_optimize.py::"
         "test_a_zero_walks_on_to_an_open_line_before_it[within-margin]",),
    ),
    Mutant(
        "a NaN bound rules its line out",
        "optimize.py",
        "bounded = not np.isnan(lower).any()",
        "bounded = True",
        ("tests/test_optimize.py::test_a_nan_bound_rules_no_line_out",),
    ),
    Mutant(
        "a NaN bound rules its line out for a rate of 0",
        "optimize.py",
        "~(lower > _BOUND_MARGIN)",
        "lower <= _BOUND_MARGIN",
        ("tests/test_optimize.py::test_a_zero_walks_on_to_an_open_line_before_it[nan]",),
    ),
    Mutant(
        "the visit order's prefix leaves out the lines that tie its k-th bound",
        "optimize.py",
        "lower <= kth",
        "lower < kth",
        ("tests/test_optimize.py::test_lazy_visit_order_equals_the_full_stable_sort[none]",),
    ),
    Mutant(
        "the coarse walk's evaluations left out of the count",
        "optimize.py",
        "        evaluations += used\n        # The axis holds",
        "        # The axis holds",
        ("tests/test_optimize.py::test_optimize_general_pinned_results[scenario-16-jamming]",
         "tests/test_optimize.py::test_broadcast_walk_matches_materialized_walk[low-dim-1]"),
    ),
    Mutant(
        "R_njg searched with jamming, on p instead of strip_jamming(p)",
        "optimize.py",
        "for q in (strip_jamming(p), p)",
        "for q in (p, p)",
        ("tests/test_optimize.py::test_optimize_general_pinned_results[scenario-16-no-jamming]",
         "tests/test_cli.py::test_point_searches_at_once_equal_searches_in_order"),
    ),
    Mutant(
        "invalid triples left in the search",
        "optimize.py",
        "where=~(valid & np.isfinite(sec))",
        "where=~np.isfinite(sec)",
        ("tests/test_optimize.py::"
         "test_search_masks_an_objective_that_is_lowest_outside_the_valid_set",),
    ),
    # The rate rule and the shared-band grid terms.
    Mutant(
        "effective leakage takes the larger of the joint and single terms",
        "core.py",
        "return np.minimum(joint, np.maximum(single_1, single_2))",
        "return np.maximum(joint, np.maximum(single_1, single_2))",
        ("tests/test_core.py::test_secure_rates_equal_combine_breakdown_elementwise",
         "tests/test_discrete.py::test_sup_inf_on_bundled_channel"),
    ),
    Mutant(
        "secure rate not clamped at 0",
        "core.py",
        "return gap if gap > 0.0 else 0.0",
        "return gap",
        ("tests/test_core.py::test_combine_breakdown_clamps_negative_gap",),
    ),
    Mutant(
        "the main term taken as one value when only one eavesdropper does not jam",
        "oracle.py",
        "if j1 == 0.0 and j2 == 0.0:",
        "if j1 == 0.0 or j2 == 0.0:",
        ("tests/test_oracle.py::test_grid_preserves_input_shape",
         "tests/test_oracle.py::test_degenerate_powers_evaluate_to_limits"),
    ),
    Mutant(
        "eavesdropper 1's single leakage takes the cross power of its own input",
        "oracle.py",
        "b1, c1 = p.h_l_1e * sd_l, p.h_2e_1e * sd_2",
        "b1, c1 = p.h_l_1e * sd_l, p.h_2e_1e * sd_1",
        ("tests/test_oracle.py::"
         "test_rates_do_not_change_when_the_eavesdroppers_swap_names[gen-point]",),
    ),
    Mutant(
        "joint residual variance not held to 1 - max(rho_1^2, rho_2^2)",
        "oracle.py",
        "        np.minimum(joint, 1.0 - np.maximum(q1 * q1, q2 * q2), out=joint)\n",
        "",
        ("tests/test_oracle.py::test_grid_joint_leakage_next_to_rho12_minus_one",),
    ),
    # The discrete sup-inf search and its probe bound.
    Mutant(
        "outer sup keeps the last visited of tied legitimate laws",
        "discrete.py",
        "if worst > best_rate or (worst == best_rate and first + i < best_law):",
        "if worst >= best_rate:",
        ("tests/test_discrete.py::"
         "test_sup_inf_equals_the_full_matrix_search[inert-eavesdroppers-m3]",
         "tests/test_discrete.py::test_sup_inf_pinned_tie_break[channel-22]"),
    ),
    Mutant(
        "the probe bound taken as the largest probe rate, not the least",
        "discrete.py",
        "bound = probe_rates.min(axis=1)",
        "bound = probe_rates.max(axis=1)",
        ("tests/test_discrete.py::test_sup_inf_equals_the_full_matrix_search[dm_bsc_taps]",),
    ),
    Mutant(
        "a law whose probe bound ties the incumbent is visited even after it",
        "discrete.py",
        "(bound[ahead] == best_rate) & (first + ahead < best_law))",
        "(bound[ahead] == best_rate))",
        ("tests/test_discrete.py::test_sup_inf_equals_the_full_matrix_search[taps-b-m3]",),
    ),
    Mutant(
        "each visited law's probe pairs counted twice",
        "discrete.py",
        "evaluations += len(visit) * len(others)",
        "evaluations += len(visit) * n_inner",
        ("tests/test_discrete.py::test_sup_inf_equals_the_full_matrix_search[dm_bsc_taps]",
         "tests/test_discrete.py::test_sup_inf_is_independent_of_the_stack_size[3]"),
    ),
    Mutant(
        "the inner recheck run at m instead of 2m",
        "discrete.py",
        "eavesdropper_input_grid(n_x1e, n_x2e, 2 * m)",
        "eavesdropper_input_grid(n_x1e, n_x2e, m)",
        ("tests/test_discrete.py::test_sup_inf_pinned_tie_break[channel-5]",),
    ),
    Mutant(
        "each probe read from the mirrored context's column",
        "discrete.py",
        "return table, probes.reshape(len(probes), n_q).argmax(axis=1)",
        "return table, probes.reshape(len(probes), n_q).argmax(axis=1)[::-1]",
        ("tests/test_discrete.py::"
         "test_probe_table_gives_every_law_its_own_probe_rates[uneven-2x1x3-m3]",
         "tests/test_discrete.py::test_sup_inf_equals_the_full_matrix_search[uneven-3x2x1-m3]"),
    ),
    Mutant(
        "each probe read from the previous context's column",
        "discrete.py",
        "return table, probes.reshape(len(probes), n_q).argmax(axis=1)",
        "return table, probes.reshape(len(probes), n_q).argmax(axis=1) - 1",
        ("tests/test_discrete.py::"
         "test_probe_table_gives_every_law_its_own_probe_rates[uneven-2x1x3-m3]",
         "tests/test_discrete.py::test_probe_table_gives_every_law_its_own_probe_rates[dm_bsc_taps]",
         "tests/test_discrete.py::test_sup_inf_equals_the_full_matrix_search[uneven-3x2x1-m3]"),
    ),
    Mutant(
        "the recheck's coarse rates written at the wrong fine-grid laws",
        "discrete.py",
        "out[on_coarse] = row",
        "out[on_coarse] = row[::-1]",
        tuple(f"tests/test_discrete.py::test_refined_row_equals_the_whole_fine_row[{case}]"
              for case in ("uneven-2x1x3-m3", "dm_bsc_taps")),
    ),
    # The closed forms, each a batch whose scalar call is a batch of one.
    Mutant(
        "the non-colluding row of the orthogonal batch left loud",
        "gaussian.py",
        "    rows[1, 6:8] = 0.0  # P_1e and P_2e\n",
        "",
        ("tests/test_gaussian.py::test_orthogonal_rates_equal_the_three_scalar_calls",
         "tests/test_cli.py::test_fig3a_hl2_sweep_equals_its_committed_csv"),
    ),
    Mutant(
        "the joint-argument check dropped from the shared-band batch",
        "gaussian.py",
        "b.require(joint_arg < 0.0, lambda i:",
        "b.require(joint_arg < -math.inf, lambda i:",
        ("tests/test_gaussian.py::test_scalar_shared_band_calls_are_batches_of_one",),
    ),
    Mutant(
        "a power of 0 refused",
        "gaussian.py",
        '_POWER = (0.0, "power',
        '_POWER = (math.ulp(0.0), "power',
        # Every module that builds a silent point at import fails to collect,
        # test_oracle.py among them; these tests still run and fail.
        tuple(f"tests/test_gaussian.py::test_each_field_takes_the_ends_of_its_domain[{family}]"
              for family in ("orthogonal", "general")),
    ),
    Mutant(
        "a noise of 0 accepted",
        "gaussian.py",
        '_NOISE = (math.ulp(0.0), "noise',
        '_NOISE = (0.0, "noise',
        ("tests/test_gaussian.py::test_param_validation",
         "tests/test_gaussian.py::"
         "test_a_field_out_of_its_domain_raises_its_kinds_message[orthogonal-N_2e_m-0.0]"),
    ),
    Mutant(
        "the overflow check on a gain's square dropped",
        "gaussian.py",
        "self._checks.append((self._over[name], lambda i: gain_squared(",
        "self._checks.append((self._over[name] & False, lambda i: gain_squared(",
        tuple(f"tests/test_gaussian.py::test_a_gain_whose_square_overflows_raises_domain_error[{case}]"
              for case in ("orthogonal-h_l", "general-h_l", "single_1-h_l_1e")),
    ),
    Mutant(
        "the cross-gain checks recorded before the joint theta",
        "gaussian.py",
        '    joint = b.theta(s1 + s2)\n'
        '    c1 = b.gain("h_1c") * x["P_2e"] / x["N_1e_c"]\n'
        '    c2 = b.gain("h_2c") * x["P_1e"] / x["N_2e_c"]\n',
        '    c1 = b.gain("h_1c") * x["P_2e"] / x["N_1e_c"]\n'
        '    c2 = b.gain("h_2c") * x["P_1e"] / x["N_2e_c"]\n'
        '    joint = b.theta(s1 + s2)\n',
        ("tests/test_gaussian.py::test_a_row_that_fails_two_checks_raises_the_first"
         "[orthogonal-joint-before-cross-gain]",),
    ),
    Mutant(
        "squares by numpy's multiplication instead of the C library's pow",
        "gaussian.py",
        "out = np.fromiter(map(math.pow, flat, repeat(2.0)), float, len(flat))",
        "out = np.square(np.array(flat))",
        ("tests/test_gaussian.py::test_batch_rows_equal_the_printed_forms_in_plain_floats",),
    ),
    Mutant(
        "theta by numpy's log2 instead of the C library's",
        "gaussian.py",
        "out = 0.5 * np.fromiter(map(math.log2, flat), float, len(flat)).reshape(args.shape)",
        "out = 0.5 * np.log2(np.array(flat)).reshape(args.shape)",
        ("tests/test_gaussian.py::test_batch_rows_equal_the_printed_forms_in_plain_floats",),
    ),
    # The audit.
    Mutant(
        "single_2_alt reads rho_1 instead of rho_2",
        "audit.py",
        "alt = np.column_stack([rhos[:, 1], rhos[:, 1], np.ones(k)])",
        "alt = np.column_stack([rhos[:, 0], rhos[:, 1], np.ones(k)])",
        ("tests/test_audit.py::test_audit_reports_the_rho2_both_reading_as_information",),
    ),
    Mutant(
        "a block leaves the generator one uniform past its last",
        "audit.py",
        "rng.state = int(states[pos - 1])",
        "rng.state = int(states[min(pos, states.size - 1)])",
        ("tests/test_audit.py::test_audit_is_independent_of_the_block_size[7]",
         "tests/test_audit.py::test_block_draws_follow_the_scalar_map[12345]"),
    ),
    Mutant(
        "a required audit term made informational",
        "audit.py",
        '("general/rho/single_1", True)',
        '("general/rho/single_1", False)',
        ("tests/test_audit.py::test_audit_general_rows",),
    ),
)


def _pytest(root: Path, ids: list[str]) -> tuple[int, set[str], str]:
    """Run the named tests under ``root``: exit code, failed or erroring ids,
    and the output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *ids],
        cwd=root, env=env, capture_output=True, text=True,
    )
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed, proc.stdout + proc.stderr


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="wiretap-mutants-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", root)
        package = root / "src" / "wiretap_rates"

        for m in MUTANTS:
            count = (package / m.file).read_text().count(m.old)
            if count != 1:
                problems.append(f"{m.name}: old text found {count} times in {m.file}")
        if problems:
            print("\n".join(problems))
            return 1

        ids = sorted({t for m in MUTANTS for t in m.tests})
        code, _, output = _pytest(root, ids)
        if code != 0:
            print(output)
            print(f"the {len(ids)} named tests do not all pass unmutated")
            return 1

        for m in MUTANTS:
            path = package / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            _, failed, output = _pytest(root, list(m.tests))
            path.write_text(original)
            survivors = [t for t in m.tests if t not in failed]
            verdict = "killed" if m.tests and not survivors else "SURVIVED"
            print(f"{verdict:8s} {time.perf_counter() - start:5.1f} s  {m.name}")
            if verdict != "killed":
                print(output)
                problems.append(f"{m.name}: passes {survivors or 'with no named test'}")
    if problems:
        print("\n".join(problems))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
