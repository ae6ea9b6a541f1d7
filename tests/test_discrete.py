import itertools
import math
from importlib.resources import files

import numpy as np
import pytest

from wiretap_rates import discrete
from wiretap_rates.discrete import (
    DMChannel,
    EavesdropperInputDist,
    LegitimateInputDist,
    X_L,
    X_1E,
    X_2E,
    Y_L,
    Y_1E,
    Y_2E,
    build_orthogonal_dm,
    eavesdropper_input_grid,
    joint_distribution,
    legitimate_input_grid,
    mutual_info_discrete,
    rate_dm_fixed,
    reduce_noncolluding,
    reduce_perfectcolluding,
    simplex_grid,
    sup_inf_rate,
)
from wiretap_rates.cli import load_config
from wiretap_rates.core import MAX_GRID_POINTS, DomainError, GridBudgetError


def h2(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def bsc(p: float) -> np.ndarray:
    return np.array([[1 - p, p], [p, 1 - p]])


def bundled_channel() -> DMChannel:
    text = (files("wiretap_rates") / "configs" / "bsc_degraded.dmc").read_text()
    return DMChannel.from_text(text)


def uniform_inputs(ch: DMChannel):
    n_xl, n1, n2 = ch.input_sizes
    r = LegitimateInputDist(np.full((n_xl, n1, n2), 1.0 / n_xl))
    q = EavesdropperInputDist(np.full((n1, n2), 1.0 / (n1 * n2)))
    return r, q


def test_axis_constants():
    assert (X_L, X_1E, X_2E, Y_L, Y_1E, Y_2E) == (0, 1, 2, 3, 4, 5)


def test_channel_validation():
    with pytest.raises(DomainError):
        DMChannel(np.ones((2, 2, 2)))
    t = np.full((2, 1, 1, 2, 1, 1), 0.3)  # columns sum to 0.6
    with pytest.raises(DomainError):
        DMChannel(t)
    bad = np.zeros((2, 1, 1, 2, 1, 1))
    bad[0, 0, 0, :, 0, 0] = [1.5, 1.0]
    bad[1, 0, 0, :, 0, 0] = [-0.5, 0.0]
    with pytest.raises(DomainError):
        DMChannel(bad)


def test_text_roundtrip_is_exact():
    ch = bundled_channel()
    again = DMChannel.from_text(ch.to_text())
    assert np.array_equal(ch.transition, again.transition)
    assert ch.to_text() == again.to_text()


def test_from_text_rejects_wrong_count():
    ch = bundled_channel()
    lines = ch.to_text().splitlines()
    with pytest.raises(DomainError):
        DMChannel.from_text("\n".join(lines[:-1]))
    with pytest.raises(DomainError):
        DMChannel.from_text("\n".join(lines + ["0.5"]))


def test_from_text_rejects_sizes_whose_count_is_too_long_to_print():
    # Six 800-digit sizes multiply to 4,800 digits, more than Python prints.
    with pytest.raises(DomainError, match=r"has 1 values, expected more than 2\*\*63$"):
        DMChannel.from_text(" ".join(["9" * 800] * 6) + "\n1.0\n")


@pytest.mark.parametrize("sizes", ["-1 -1 1 1 1 1", "1 1 1 -2 -1 1"])
def test_from_text_rejects_sizes_below_one(sizes):
    with pytest.raises(DomainError, match="at least 1"):
        DMChannel.from_text(f"{sizes}\n1.0\n1.0\n")


def test_from_text_ignores_comments_and_blank_lines():
    ch = bundled_channel()
    text = "# a comment\n\n" + ch.to_text() + "\n# trailing\n"
    assert np.array_equal(DMChannel.from_text(text).transition, ch.transition)


def test_input_law_validation():
    with pytest.raises(DomainError):
        EavesdropperInputDist(np.array([[0.5, 0.6]]))  # sums to 1.1
    with pytest.raises(DomainError):
        LegitimateInputDist(np.array([[[0.5]], [[0.6]]]))  # column sums 1.1
    with pytest.raises(DomainError):
        EavesdropperInputDist(np.array([0.5, 0.5]))  # wrong rank


def test_input_law_normalization_bound():
    # A law may miss 1 by at most 1e-9.
    EavesdropperInputDist(np.array([[0.5, 0.5 + 1e-10]]))
    with pytest.raises(DomainError, match="normalize"):
        EavesdropperInputDist(np.array([[0.5, 0.5 + 1e-7]]))


def test_input_law_refuses_a_negative_entry_past_round_off():
    # An entry may fall below 0 by at most 1e-12.
    EavesdropperInputDist(np.array([[0.5 + 1e-13, 0.5, -1e-13]]))
    with pytest.raises(DomainError, match="negative entry"):
        EavesdropperInputDist(np.array([[0.5 + 1e-11, 0.5, -1e-11]]))


@pytest.mark.parametrize("term, expected", [(-5e-11, 0.0), (-2e-10, None)])
def test_cmi_round_off_is_truncated_only_down_to_its_bound(monkeypatch, term, expected):
    # No valid pmf gives a term below 0 by more than round-off, so the
    # entropies are substituted: H(A) = term, H(B) = H() = H(A, B) = 0 on a
    # 2x3 joint, whose marginals have 2, 3, 1 and 6 cells.
    monkeypatch.setattr(discrete, "_entropies",
                        lambda pmfs: np.full(len(pmfs), term if pmfs.shape[1] == 2 else 0.0))
    joints = np.full((1, 2, 3), 1.0 / 6.0)
    if expected is None:
        with pytest.raises(DomainError, match="joint pmf is inconsistent"):
            discrete._cmi_bits(joints, [((0,), (1,), ())])
    else:
        assert discrete._cmi_bits(joints, [((0,), (1,), ())])[0].tolist() == [expected]


def test_joint_distribution_is_a_pmf():
    ch = bundled_channel()
    r, q = uniform_inputs(ch)
    j = joint_distribution(ch, r, q)
    assert j.shape == (2, 1, 1, 2, 2, 2)
    assert j.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(j >= 0.0)
    # input marginal factorizes back into r * q
    marg = j.sum(axis=(Y_L, Y_1E, Y_2E))
    assert np.allclose(marg, r.r * q.q[None, :, :])


def test_joint_distribution_shape_mismatch():
    ch = bundled_channel()
    r, q = uniform_inputs(ch)
    with pytest.raises(DomainError):
        joint_distribution(ch, LegitimateInputDist(np.full((3, 1, 1), 1 / 3)), q)


def test_mutual_info_bsc_closed_form():
    # X uniform through a BSC(p): I(X;Y) = 1 - h2(p)
    p = 0.2
    joint = (bsc(p) * 0.5).T  # joint[x, y]
    assert mutual_info_discrete(joint, [0], [1]) == pytest.approx(
        1.0 - h2(p), abs=1e-12
    )


def test_mutual_info_independent_variables():
    joint = np.outer([0.3, 0.7], [0.6, 0.4])
    assert mutual_info_discrete(joint, [0], [1]) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_chain_rule():
    rng = np.random.default_rng(7)
    joint = rng.random((2, 3, 2, 2))
    joint /= joint.sum()
    lhs = mutual_info_discrete(joint, [0], [1, 2])
    rhs = mutual_info_discrete(joint, [0], [1]) + mutual_info_discrete(
        joint, [0], [2], [1]
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mutual_info_rejects_overlapping_axes():
    joint = np.full((2, 2), 0.25)
    with pytest.raises(DomainError):
        mutual_info_discrete(joint, [0], [0])


@pytest.mark.parametrize(
    "joint, message",
    [
        ([[0.5, -0.5], [0.5, 0.5]], "joint pmf has a negative entry"),
        ([[0.9, 0.0], [0.0, 0.9]], "joint pmf does not normalize to 1"),
        ([[np.nan, 0.5], [0.25, 0.25]], "joint pmf has a non-finite entry"),
    ],
    ids=["negative", "total-1.8", "nan"],
)
def test_mutual_info_rejects_a_joint_that_is_not_a_pmf(joint, message):
    with pytest.raises(DomainError, match=message):
        mutual_info_discrete(np.array(joint), [0], [1])


def test_mutual_info_leaves_the_joint_unchanged():
    # Round-off below 0 is clipped inside the evaluator, never in the caller's array.
    joint = np.array([[0.5, -1e-13], [0.25, 0.25 + 1e-13]])
    before = joint.copy()
    mutual_info_discrete(joint, [0], [1])
    assert np.array_equal(joint, before)


# Positive cells per row around numpy's 8-way unrolled and 128-element
# pairwise summation blocks, where sums with zeros left in place round
# differently from sums of the positive cells alone.
@pytest.mark.parametrize("width", [128, 300])
def test_grouped_entropies_equal_one_pmf_sums(width):
    rng = np.random.default_rng(width)
    rows = []
    for count in [0, 1, 7, 8, 9, 127, 128, 9, 1, 0, 128, 7]:
        row = np.zeros(width)
        cells = np.sort(rng.choice(width, size=count, replace=False))
        row[cells] = rng.random(count)
        rows.append(row / max(row.sum(), 1.0))
    pmfs = np.array(rows)

    def reference(row):
        p = row[row > 0]
        return -(p * np.log2(p)).sum()

    assert discrete._entropies(pmfs).tolist() == [reference(row) for row in pmfs]


def test_rate_dm_fixed_on_degraded_bsc():
    ch = bundled_channel()
    r, q = uniform_inputs(ch)
    b = rate_dm_fixed(ch, r, q)
    assert b.main_rate == pytest.approx(1.0 - h2(0.1), abs=1e-12)
    # collusion outputs are constants, so each single leakage is one
    # listening link and the joint pools both
    assert b.leak_single_1 == pytest.approx(1.0 - h2(0.3), abs=1e-12)
    assert b.secure_rate == pytest.approx(h2(0.3) - h2(0.1), abs=1e-12)


def test_simplex_grid_enumeration():
    g = simplex_grid(2, 2)
    assert g.tolist() == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
    g3 = simplex_grid(3, 2)
    assert g3.shape == (6, 3)
    assert np.allclose(g3.sum(axis=1), 1.0)
    # ascending lexicographic in the integer compositions
    assert g3[0].tolist() == [0.0, 0.0, 1.0]
    assert g3[-1].tolist() == [1.0, 0.0, 0.0]


def test_simplex_grid_count():
    # compositions of m into k parts: C(m + k - 1, k - 1)
    assert len(simplex_grid(4, 3)) == math.comb(6, 3)
    with pytest.raises(DomainError):
        simplex_grid(0, 2)


def test_input_grids_shapes():
    qs = eavesdropper_input_grid(2, 1, 2)
    assert qs.shape == (3, 2, 1)
    rs = list(legitimate_input_grid(2, 2, 1, 2))
    # one simplex per (x_1e, x_2e) context, all combinations
    assert len(rs) == 9
    assert rs[0].shape == (2, 2, 1)
    # the last context varies fastest, each over the simplex grid in order
    base = simplex_grid(2, 2)
    assert [r[:, 1, 0].tolist() for r in rs[:3]] == base.tolist()
    assert [r[:, 0, 0].tolist() for r in rs[::3]] == base.tolist()


def test_sup_inf_on_bundled_channel():
    ch = bundled_channel()
    res = sup_inf_rate(ch, 0.1)
    assert res.rate == pytest.approx(h2(0.3) - h2(0.1), abs=1e-9)
    # trivial eavesdropper alphabet: the inner refinement changes nothing
    assert res.refined_rate == pytest.approx(res.rate, abs=1e-12)
    assert res.r_star.r[:, 0, 0] == pytest.approx([0.5, 0.5])


def test_sup_inf_budget_guard():
    ch = bundled_channel()
    with pytest.raises(GridBudgetError, match="budget"):
        sup_inf_rate(ch, 0.02, max_evaluations=10)


def tapped_channel() -> DMChannel:
    # nontrivial eavesdropper input: x_1e flips a BSC toward eavesdropper 2
    main = np.einsum("al,bl,cl->abcl", bsc(0.1), bsc(0.25), bsc(0.25))
    collusion = np.zeros((1, 2, 2, 1))
    collusion[0, :, 0, 0] = [0.9, 0.1]
    collusion[0, :, 1, 0] = [0.4, 0.6]
    return build_orthogonal_dm(main, collusion)


def bsc_tap_channel(p_main, p_1, p_2, t_1, t_2) -> DMChannel:
    """2x2x2 inputs: BSC listening links, eavesdropper j hears the other's
    input through a BSC(t_j) collusion tap."""
    main = np.einsum("al,bl,cl->abcl", bsc(p_main), bsc(p_1), bsc(p_2))
    collusion = np.einsum("ab,cd->acdb", bsc(t_1), bsc(t_2))
    return build_orthogonal_dm(main, collusion)


def full_matrix_sup_inf(ch: DMChannel, m: int):
    """The exhaustive search, as ``sup_inf_rate`` ran before it pruned: every
    (legitimate, eavesdropper) pair scored, the earliest law of the largest
    worst case, the first minimum of its row.  Returns the result's five
    fields, evaluations being the pairs it scored, and the (laws, q grid,
    rate matrix) it read them from."""
    laws = np.array(list(legitimate_input_grid(*ch.input_sizes, m)))
    qs = eavesdropper_input_grid(*ch.input_sizes[1:], m)
    rows = discrete._product_rates(ch, laws, qs)
    best = int(np.argmax(rows.min(axis=1)))
    refined = discrete._product_rates(
        ch, laws[best][np.newaxis], eavesdropper_input_grid(*ch.input_sizes[1:], 2 * m))
    fields = (float(rows[best].min()), float(refined.min()), laws[best].tolist(),
              qs[np.argmin(rows[best])].tolist(), rows.size + refined.size)
    return fields, (laws, qs, rows)


def record_product_rates(monkeypatch) -> list:
    """Record every ``_product_rates`` call of the search as (rs, qs)."""
    calls = []
    product_rates = discrete._product_rates

    def spy(ch, rs, qs):
        calls.append((rs.copy(), qs.copy()))
        return product_rates(ch, rs, qs)

    monkeypatch.setattr(discrete, "_product_rates", spy)
    return calls


def inert_eavesdropper_channel() -> DMChannel:
    # 2x2 eavesdropper inputs that reach no output: at any law that is the
    # same in every context, every eavesdropper law gives the same rate.
    main = np.einsum("al,bl,cl->abcl", bsc(0.1), bsc(0.3), bsc(0.25))
    return build_orthogonal_dm(main, np.ones((1, 1, 2, 2)))


def random_channel(seed: int, shape: tuple[int, ...]) -> DMChannel:
    """A channel of six-axis ``shape`` with every transition drawn at random,
    so no two contexts or eavesdroppers are alike."""
    t = np.random.default_rng(seed).random(shape)
    return DMChannel(t / t.sum(axis=(0, 1, 2)))


TAPS_A = (0.05, 0.3, 0.25, 0.2, 0.15)
TAPS_B = (0.09366497167192404, 0.22972591094473757, 0.3815144672003159,
          0.060671304355965905, 0.28125417297538813)


def bundled_dm(name: str) -> tuple[DMChannel, int]:
    config = load_config(name)
    return config.dm_channel, round(1.0 / config.dm.grid_resolution)


SEARCH_CASES = {
    "tapped-m2": lambda: (tapped_channel(), 2),
    **{f"taps-{tag}-m{m}": (lambda taps=taps, m=m: (bsc_tap_channel(*taps), m))
       for tag, taps in (("a", TAPS_A), ("b", TAPS_B)) for m in (2, 3, 4)},
    "dm_bsc": lambda: bundled_dm("dm_bsc"),
    "dm_bsc_taps": lambda: bundled_dm("dm_bsc_taps"),
    "noncolluding-m20": lambda: (reduce_noncolluding(bsc_tap_channel(*TAPS_A)), 20),
    "inert-eavesdroppers-m3": lambda: (inert_eavesdropper_channel(), 3),
    # Uneven input alphabets, every context with its own transitions: a
    # probe read from another context's column cannot pass by symmetry.  On
    # the first, the wrong column moves the result.
    "uneven-3x2x1-m3": lambda: (random_channel(0, (2, 3, 2, 3, 2, 1)), 3),
    "uneven-2x1x3-m3": lambda: (random_channel(3, (2, 2, 3, 2, 1, 3)), 3),
}


@pytest.mark.parametrize("case", SEARCH_CASES)
def test_sup_inf_equals_the_full_matrix_search(monkeypatch, case):
    ch, m = SEARCH_CASES[case]()
    (*expected, every_pair), (laws, qs, rows) = full_matrix_sup_inf(ch, m)
    calls = record_product_rates(monkeypatch)
    res = sup_inf_rate(ch, 1.0 / m)
    assert [res.rate, res.refined_rate, res.r_star.r.tolist(),
            res.q_star.q.tolist()] == expected

    # The first call is the probe table: the laws with one column in every
    # context against the point masses.  The last is the recheck: r_star
    # against the laws of the grid at 2m that are not on the grid at m.
    (table_rs, table_qs), *search, (recheck_rs, recheck_qs) = calls
    assert all((r == r[:, :1, :1]).all() for r in table_rs)
    assert len(table_rs) == len(simplex_grid(ch.input_sizes[0], m))
    assert (table_qs.reshape(len(table_qs), -1).max(axis=1) == 1.0).all()
    assert recheck_rs.tolist() == [res.r_star.r.tolist()]
    coarse = {q.tobytes() for q in qs}
    assert recheck_qs.tolist() == [
        q.tolist() for q in eavesdropper_input_grid(*ch.input_sizes[1:], 2 * m)
        if q.tobytes() not in coarse]
    law_index = {r.tobytes(): i for i, r in enumerate(laws)}
    q_index = {q.tobytes(): j for j, q in enumerate(qs)}
    scored = [(law_index[r.tobytes()], q_index[q.tobytes()])
              for rs, call_qs in [(table_rs, table_qs), *search]
              for r in rs for q in call_qs]
    assert len(set(scored)) == len(scored), "a pair was scored twice"
    assert res.evaluations == len(scored) + len(recheck_qs) <= every_pair
    if case == "dm_bsc_taps":
        assert len(scored) <= rows.size // 3

    # Every law scored beyond its probe laws could still win when it was
    # scored: its probe bound is above the incumbent's worst case, or equal
    # to it with the law ahead of the incumbent.  The incumbent moves only
    # between calls.
    is_probe = qs.reshape(len(qs), -1).max(axis=1) == 1.0
    bound, worst = rows[:, is_probe].min(axis=1), rows.min(axis=1)
    best, best_law = -math.inf, len(laws)
    for rs, call_qs in search:
        visited = [law_index[r.tobytes()] for r in rs]
        for i in visited:
            assert bound[i] > best or (bound[i] == best and i < best_law), \
                f"law {i} scored after it was ruled out"
        for i in visited:
            if worst[i] > best or (worst[i] == best and i < best_law):
                best, best_law = worst[i], i


@pytest.mark.parametrize("case", ["tapped-m2", "taps-a-m3", "taps-b-m3", "dm_bsc_taps"])
def test_sup_inf_rate_does_not_change_when_the_eavesdroppers_swap_names(case):
    # Exchanging eavesdroppers 1 and 2 swaps Y_1e with Y_2e and X_1e with
    # X_2e.  The laws are enumerated in another order, so only the rates
    # are compared.
    ch, m = SEARCH_CASES[case]()
    swapped = DMChannel(ch.transition.transpose(0, 2, 1, 3, 5, 4))
    res, res_swapped = sup_inf_rate(ch, 1.0 / m), sup_inf_rate(swapped, 1.0 / m)
    assert res_swapped.rate == pytest.approx(res.rate, rel=0.0, abs=1e-12)
    assert res_swapped.refined_rate == pytest.approx(res.refined_rate, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("case", ["uneven-3x2x1-m3", "uneven-2x1x3-m3", "dm_bsc_taps"])
def test_probe_table_gives_every_law_its_own_probe_rates(case):
    ch, m = SEARCH_CASES[case]()
    laws = np.array(list(legitimate_input_grid(*ch.input_sizes, m)))
    qs = eavesdropper_input_grid(*ch.input_sizes[1:], m)
    probes = qs[qs.reshape(len(qs), -1).max(axis=1) == 1.0]
    columns = simplex_grid(ch.input_sizes[0], m)
    table, probe_ctx = discrete._probe_table(ch, columns, probes)
    codes = np.array(list(itertools.product(range(len(columns)), repeat=len(probes))))
    gathered = table[codes[:, probe_ctx], np.arange(len(probes))]
    assert gathered.tobytes() == discrete._product_rates(ch, laws, probes).tobytes()


@pytest.mark.parametrize("case", ["uneven-2x1x3-m3", "dm_bsc_taps", "taps-b-m2"])
def test_refined_row_equals_the_whole_fine_row(case):
    # The coarse row is read into the fine one at the coarse grid's laws.
    ch, m = SEARCH_CASES[case]()
    fine = eavesdropper_input_grid(*ch.input_sizes[1:], 2 * m)
    coarse = eavesdropper_input_grid(*ch.input_sizes[1:], m)
    for r in list(legitimate_input_grid(*ch.input_sizes, m))[::9]:
        row = discrete._product_rates(ch, r[np.newaxis], coarse)[0]
        expected = discrete._product_rates(ch, r[np.newaxis], fine)[0]
        assert discrete._refined_row(ch, r, row, m).tobytes() == expected.tobytes()


def test_stacked_secure_rates_equal_scalar_evaluations():
    ch = tapped_channel()
    qs = eavesdropper_input_grid(2, 1, 4)
    rs = np.array(list(legitimate_input_grid(2, 2, 1, 4))[::7])
    stacked = discrete._product_rates(ch, rs, qs)
    scalar = [
        [
            rate_dm_fixed(ch, LegitimateInputDist(r), EavesdropperInputDist(q)).secure_rate
            for q in qs
        ]
        for r in rs
    ]
    assert stacked.tolist() == scalar


# 47 joints per stack hold two outer laws of 20 eavesdropper laws each and
# end inside the third.
@pytest.mark.parametrize("joints_per_stack", [1, 3, 47])
def test_sup_inf_is_independent_of_the_stack_size(monkeypatch, joints_per_stack):
    # Only the count of pairs scored moves: the stack size sets the batches
    # of laws the probe bound ranks.
    ch = bsc_tap_channel(0.05, 0.3, 0.25, 0.2, 0.15)
    whole = sup_inf_rate(ch, 1.0 / 3.0)
    monkeypatch.setattr(discrete, "_STACK_CELLS", joints_per_stack * ch.transition.size)
    calls = record_product_rates(monkeypatch)
    split = sup_inf_rate(ch, 1.0 / 3.0)
    assert split.rate == whole.rate
    assert split.refined_rate == whole.refined_rate
    assert np.array_equal(split.r_star.r, whole.r_star.r)
    assert np.array_equal(split.q_star.q, whole.q_star.q)
    assert split.evaluations == sum(len(rs) * len(qs) for rs, qs in calls)


THIRD, TWO_THIRDS = 1.0 / 3.0, 2.0 / 3.0


@pytest.mark.parametrize(
    "taps, rate, refined_rate, r_star, q_star",
    [
        (
            (0.045009356646736526, 0.3584763484933624, 0.262987751813643,
             0.3583883758319963, 0.1136259074184674),
            0.5170741374901873,
            0.5132616369635199,
            [[[TWO_THIRDS, TWO_THIRDS], [THIRD, THIRD]],
             [[THIRD, THIRD], [TWO_THIRDS, TWO_THIRDS]]],
            [[0.0, 0.0], [1.0, 0.0]],
        ),
        (
            (0.09366497167192404, 0.22972591094473757, 0.3815144672003159,
             0.060671304355965905, 0.28125417297538813),
            0.2988939336366221,
            0.29889393363662164,
            [[[THIRD, TWO_THIRDS], [THIRD, TWO_THIRDS]],
             [[TWO_THIRDS, THIRD], [TWO_THIRDS, THIRD]]],
            [[0.0, 0.0], [0.0, 1.0]],
        ),
    ],
    ids=["channel-5", "channel-22"],
)
def test_sup_inf_pinned_tie_break(taps, rate, refined_rate, r_star, q_star):
    # At r_star the inner minimum is shared by eight laws within 7e-16 on
    # both channels, so q_star is fixed by rounding and first-wins tie
    # breaking: each law must get exactly the value it gets alone.
    # Entropies summed over whole stacks move q_star on the second channel.
    # Pairs scored: the 4 columns on the 4 probe laws, 12 laws visited on the
    # 16 other eavesdropper laws, and the 64 recheck laws off the m = 3 grid.
    res = sup_inf_rate(bsc_tap_channel(*taps), 1.0 / 3.0)
    assert res.rate == rate
    assert res.refined_rate == refined_rate
    assert res.r_star.r.tolist() == r_star
    assert res.q_star.q.tolist() == q_star
    assert res.evaluations == 4 * 4 + 12 * 16 + 64


def test_bundled_tap_channel_is_the_channel_5_construction():
    taps = (0.045009356646736526, 0.3584763484933624, 0.262987751813643,
            0.3583883758319963, 0.1136259074184674)
    text = (files("wiretap_rates") / "configs" / "bsc_taps.dmc").read_text()
    assert text == bsc_tap_channel(*taps).to_text()


def test_bundled_degraded_channel_is_its_bsc_construction():
    # Main link BSC(0.1), independent BSC(0.3) listening links, and
    # one-letter collusion links, so the eavesdroppers learn nothing from
    # each other: the degraded case with a closed-form sup-inf rate.
    main = np.einsum("al,bl,cl->abcl", bsc(0.1), bsc(0.3), bsc(0.3))
    text = (files("wiretap_rates") / "configs" / "bsc_degraded.dmc").read_text()
    assert text == build_orthogonal_dm(main, np.ones((1, 1, 1, 1))).to_text()


def test_sup_inf_checks_budget_before_building_grids(monkeypatch):
    def refuse(*args):
        raise AssertionError("grid built before the budget check")

    monkeypatch.setattr(discrete, "legitimate_input_grid", refuse)
    monkeypatch.setattr(discrete, "simplex_grid", refuse)
    ch = bsc_tap_channel(0.05, 0.3, 0.3, 0.2, 0.2)
    with pytest.raises(GridBudgetError,
                       match=r"194481 outer x 1771 inner \+ 12341 recheck"):
        sup_inf_rate(ch, 0.05)


def test_sup_inf_budget_check_counts_no_further_than_the_budget(monkeypatch):
    # With 2x47x47 inputs at step 0.01 the outer grid holds 101^2209 laws, a
    # count of 4,428 digits, more than Python prints; the inner grids count
    # thousands of digits too.  Each count stops once past the budget.
    def refuse(*args):
        raise AssertionError("grid built before the budget check")

    monkeypatch.setattr(discrete, "legitimate_input_grid", refuse)
    monkeypatch.setattr(discrete, "simplex_grid", refuse)
    ch = DMChannel(np.ones((1, 1, 1, 2, 47, 47)))
    over = "over 2000000"
    with pytest.raises(GridBudgetError, match=(
            f"^sup-inf grid needs {over} evaluations "
            f"\\({over} outer x {over} inner \\+ {over} recheck\\), budget is 2000000$")):
        sup_inf_rate(ch, 0.01)
    # Past the budget by the outer grid alone: with 2x5x5 inputs at step 1/2,
    # 3^25 laws, counted as far as 3^24.
    with pytest.raises(GridBudgetError, match=(
            f"needs {over} evaluations \\({over} outer x 325 inner \\+ 20475 recheck\\)")):
        sup_inf_rate(DMChannel(np.ones((1, 1, 1, 2, 5, 5))), 0.5)


def test_sup_inf_refuses_a_budget_above_the_cap_before_any_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("grid built before the budget cap")

    monkeypatch.setattr(discrete, "legitimate_input_grid", refuse)
    monkeypatch.setattr(discrete, "simplex_grid", refuse)
    ch = bsc_tap_channel(0.05, 0.3, 0.3, 0.2, 0.2)
    # The grids at step 0.001 count about 1.7e20 evaluations, within the budget.
    for budget in (MAX_GRID_POINTS + 1, 10**300):
        with pytest.raises(GridBudgetError, match=f"at most {MAX_GRID_POINTS}$"):
            sup_inf_rate(ch, 0.001, budget)
    monkeypatch.undo()
    # 3 columns on 4 probe laws each, 32 laws visited on the 6 others, and
    # the 25 recheck laws off the m = 2 grid.
    assert sup_inf_rate(ch, 0.5, MAX_GRID_POINTS).evaluations == 3 * 4 + 32 * 6 + 25


def test_build_orthogonal_dm_pairs_outputs():
    main = np.einsum("al,bl,cl->abcl", bsc(0.1), bsc(0.3), bsc(0.3))
    collusion = np.zeros((2, 1, 2, 1))
    collusion[:, 0, 0, 0] = [1.0, 0.0]
    collusion[:, 0, 1, 0] = [0.0, 1.0]
    ch = build_orthogonal_dm(main, collusion)
    # eavesdropper 1 sees (y_1m, y_1c) flattened as y_1m * 2 + y_1c
    assert ch.output_sizes == (2, 4, 2)
    t = ch.transition
    # x_1e = 1 forces y_1c = 1, so even pair indices get zero mass
    assert np.all(t[:, 0, :, :, 1, :] == 0.0)
    assert np.all(t[:, 2, :, :, 1, :] == 0.0)


def test_reduce_noncolluding_pins_eavesdropper_inputs():
    ch = bundled_channel()
    red = reduce_noncolluding(ch)
    assert red.input_sizes == (2, 1, 1)
    assert np.array_equal(red.transition, ch.transition[:, :, :, :, :1, :1])


def test_reduce_perfectcolluding_shares_listening_outputs():
    main = np.einsum("al,bl,cl->abcl", bsc(0.1), bsc(0.3), bsc(0.3))
    ch = reduce_perfectcolluding(main)
    assert ch.input_sizes == (2, 1, 1)
    assert ch.output_sizes == (2, 4, 4)
    r, q = uniform_inputs(ch)
    b = rate_dm_fixed(ch, r, q)
    # each eavesdropper now holds both listening outputs, so the single
    # leakages match the pooled joint leakage
    assert b.leak_single_1 == pytest.approx(b.leak_joint, abs=1e-12)
    assert b.leak_single_2 == pytest.approx(b.leak_single_1, abs=1e-12)
