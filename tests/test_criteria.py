"""Decay-family checks on the doubling/tripling shift pair."""

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import (
    canonical_instance,
    cross_label,
    cut_at,
    flog,
    frac_chain_norm,
    frac_w1,
    frac_w2,
    increasing_r_lists,
    log_le,
    log_rel_close,
    neg_label,
    outcome,
    pos_label,
    random_matrix,
    scalar_column_cut,
    table_unitaries,
    translation,
    w1,
    weighted_shifts,
)
from opdyn import (
    CriterionInstance,
    NSeq,
    op_norm,
    projection_matrix,
    unit,
)
from opdyn.criteria import (
    _family_cuts,
    all_decay,
    chain_apply,
    chain_factors,
    chain_terms,
    check_pointwise_decay,
    check_sufficient_decay,
    check_witness_conditions,
    family_chains,
    make_report,
    render_summary,
    search_subsequence,
    sufficient_decay_logs,
    write_reports_csv,
)
from opdyn.duality import (
    FunctionalRep,
    check_dual_sufficient,
    dual_apply_power,
    dual_label,
)
from opdyn.elementary import apply_power
from opdyn.errors import OpdynError
from opdyn.lattice import (
    DEFAULT_HORIZON,
    WeightedShift,
    WeightRule,
    _exp,
    monomial_product_norm,
    monomial_product_norm_rowcut,
)


def flat_instance(m=0, k_max=10) -> CriterionInstance:
    flat = WeightedShift(WeightRule.piecewise(1.0, 1.0))
    return CriterionInstance(
        shifts=(flat, flat),
        unitary=translation(1),
        r_list=(1, 2),
        n_seq=NSeq.all_k(),
        m=m,
        k_max=k_max,
    )


# ---------------------------------------------------------------------------
# iterate sequences and instances


def test_nseq_rules():
    assert [NSeq.all_k().value(k) for k in (1, 2, 5)] == [1, 2, 5]
    assert [NSeq.arithmetic(3, 4).value(k) for k in (1, 2, 3)] == [3, 7, 11]
    assert NSeq.explicit((2, 5, 6)).value(3) == 6


def test_nseq_validation():
    with pytest.raises(ValueError):
        NSeq.arithmetic(0, 1)
    with pytest.raises(ValueError):
        NSeq.explicit((3, 3, 5))
    with pytest.raises(ValueError):
        NSeq.explicit(())
    with pytest.raises(ValueError):
        NSeq.all_k().value(0)


def test_instance_validation():
    with pytest.raises(ValueError):
        canonical_instance(m=-1)
    with pytest.raises(ValueError):
        CriterionInstance(
            shifts=(w1(),),
            unitary=translation(1),
            r_list=(2, 1),
            n_seq=NSeq.all_k(),
            m=0,
        )
    with pytest.raises(ValueError):
        canonical_instance(k_max=0)


def test_single_operator_instance_is_allowed():
    inst = CriterionInstance(
        shifts=(w1(),),
        unitary=translation(1),
        r_list=(1,),
        n_seq=NSeq.all_k(),
        m=0,
        k_max=6,
    )
    reports = check_sufficient_decay(inst, tol=0.4)
    assert {r.quantity for r in reports} == {
        pos_label(1, 1, 0),
        neg_label(1, 1, 0),
    }
    assert all_decay(reports)


def test_n_values_follow_the_sequence_rule():
    inst = canonical_instance(k_max=4)
    assert inst.n_values() == (1, 2, 3, 4)
    arith = CriterionInstance(
        shifts=(w1(),),
        unitary=translation(1),
        r_list=(1,),
        n_seq=NSeq.arithmetic(2, 3),
        m=0,
        k_max=3,
    )
    assert arith.n_values() == (2, 5, 8)


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_decays_below_records_first_settled_k():
    rep = make_report("q", [1, 2, 3, 4], [1.0, 0.5, 0.01, 0.001], 0.1)
    assert rep.verdict.kind == "decays-below"
    assert rep.verdict.attained_k == 3
    assert rep.verdict.render() == f"decays-below({0.1!r} at k=3)"


def test_verdict_ignores_transient_dips():
    rep = make_report("q", [1, 2, 3], [0.01, 0.5, 0.001], 0.1)
    assert rep.verdict.attained_k == 3


def test_verdict_inconclusive_when_trend_is_down_but_tail_is_high():
    rep = make_report("q", [1, 2, 3], [4.0, 2.0, 1.0], 0.1)
    assert rep.verdict.kind == "inconclusive"


def test_verdict_fails_when_no_decay_at_all():
    rep = make_report("q", [1, 2, 3], [1.0, 1.0, 1.0], 0.1)
    assert rep.verdict.kind == "fails"


def test_fitted_rate_recovers_a_pure_exponential():
    ns = list(range(1, 11))
    rep = make_report("q", ns, [2.0**-n for n in ns], 1e-6)
    assert abs(rep.fitted_rate + math.log(2.0)) <= 1e-9


def test_fitted_rate_needs_two_positive_points():
    assert make_report("q", [1], [0.5], 1e-6).fitted_rate is None
    assert make_report("q", [1, 2], [0.0, 0.0], 1e-6).fitted_rate is None


@given(
    tol_lo=st.floats(min_value=1e-9, max_value=1e-3),
    factor=st.floats(min_value=1.5, max_value=100.0),
)
def test_decay_threshold_is_monotone_in_tol(tol_lo, factor):
    ns = list(range(1, 21))
    vals = [2.0**-n for n in ns]
    lo = make_report("q", ns, vals, tol_lo)
    hi = make_report("q", ns, vals, tol_lo * factor)
    if lo.verdict.kind == "decays-below":
        assert hi.verdict.kind == "decays-below"
        assert hi.verdict.attained_k <= lo.verdict.attained_k


# ---------------------------------------------------------------------------
# sufficient decay on the canonical pair


def test_sufficient_decay_family_labels():
    inst = canonical_instance(m=1, r1=1, k_max=5)
    labels = {r.quantity for r in check_sufficient_decay(inst)}
    assert labels == {
        pos_label(1, 1, 1),
        neg_label(1, 1, 1),
        pos_label(2, 2, 1),
        neg_label(2, 2, 1),
        cross_label(1, 1, 2, 2, 1),
        cross_label(2, 2, 1, 1, 1),
    }


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("r1", [1, 2])
def test_all_families_decay_for_the_canonical_pair(m, r1):
    inst = canonical_instance(m=m, r1=r1, k_max=40)
    reports = check_sufficient_decay(inst, tol=1e-6)
    assert all_decay(reports)
    for rep in reports:
        assert rep.verdict.kind == "decays-below"
        assert rep.fitted_rate < 0.0


def test_cross_family_matches_exact_fraction_oracle():
    inst = canonical_instance(m=1, r1=1, k_max=20)
    reports = {r.quantity: r for r in check_sufficient_decay(inst)}
    fwd = reports[cross_label(1, 1, 2, 2, 1)]
    rev = reports[cross_label(2, 2, 1, 1, 1)]
    for (k, v_fwd), (_, v_rev) in zip(fwd.values, rev.values):
        n = fwd.n_values[k - 1]
        frac_fwd, _ = frac_chain_norm([(frac_w1, n), (frac_w2, -2 * n)], 1)
        frac_rev, _ = frac_chain_norm([(frac_w2, 2 * n), (frac_w1, -n)], 1)
        assert log_rel_close(v_fwd, flog(frac_fwd), 1e-10)
        assert log_rel_close(v_rev, flog(frac_rev), 1e-10)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_cross_family_respects_the_closed_form_bounds(m):
    inst = canonical_instance(m=m, r1=1, k_max=30)
    reports = {r.quantity: r for r in check_sufficient_decay(inst)}
    for k, v in reports[cross_label(1, 1, 2, 2, m)].values:
        n = k
        bound = Fraction(3) ** (2 * m) * Fraction(2) ** n / Fraction(3) ** (2 * n)
        weaker = Fraction(3) ** (2 * m) / Fraction(3) ** n
        assert bound <= weaker
        assert log_le(v, flog(bound), 1e-10)
    for k, v in reports[cross_label(2, 2, 1, 1, m)].values:
        bound = Fraction(3) ** (2 * m) / Fraction(2) ** k
        assert log_le(v, flog(bound), 1e-10)


def test_reversed_cross_term_decays_like_two_to_minus_n_at_m0():
    inst = canonical_instance(m=0, r1=1, k_max=25)
    reports = {r.quantity: r for r in check_sufficient_decay(inst)}
    for k, v in reports[cross_label(2, 2, 1, 1, 0)].values:
        assert log_rel_close(v, -k * math.log(2.0), 1e-10)


def test_unit_weight_shifts_fail_the_sufficient_check():
    reports = check_sufficient_decay(flat_instance(), tol=0.5)
    assert not all_decay(reports)
    assert all(r.verdict.kind == "fails" for r in reports)


def test_sufficient_decay_logs_match_report_values():
    inst = canonical_instance(m=1, r1=1, k_max=6)
    reports = {r.quantity: r for r in check_sufficient_decay(inst)}
    for k, n in enumerate(inst.n_values(), start=1):
        for label, lg in sufficient_decay_logs(inst, n):
            v = dict(reports[label].values)[k]
            assert math.isclose(math.log(v), lg, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# witness-sequence checks


def test_projection_witnesses_reproduce_the_sufficient_values():
    inst = canonical_instance(m=1, r1=1, k_max=12)
    pm = projection_matrix(1)
    d_seq = [pm] * inst.k_max
    g_seqs = [[pm] * inst.k_max, [pm] * inst.k_max]
    witness = {r.quantity: r for r in check_witness_conditions(inst, d_seq, g_seqs)}
    plain = {r.quantity: r for r in check_sufficient_decay(inst)}

    pair_map = {
        f"norm(W1^(+1n) D_k)": pos_label(1, 1, 1),
        f"norm(W2^(+2n) D_k)": pos_label(2, 2, 1),
        f"norm(W1^(-1n) G1_k)": neg_label(1, 1, 1),
        f"norm(W2^(-2n) G2_k)": neg_label(2, 2, 1),
        f"norm(W1^(+1n) W2^(-2n) G2_k)": cross_label(1, 1, 2, 2, 1),
        f"norm(W2^(+2n) W1^(-1n) G1_k)": cross_label(2, 2, 1, 1, 1),
    }
    for wlabel, plabel in pair_map.items():
        for (k, vw), (_, vp) in zip(witness[wlabel].values, plain[plabel].values):
            assert math.isclose(vw, vp, rel_tol=1e-12)

    for label in ("norm(D_k - P1)", "norm(G1_k - P1)", "norm(G2_k - P1)"):
        assert all(v == 0.0 for _, v in witness[label].values)


def test_perturbed_witnesses_report_the_exact_gap():
    inst = canonical_instance(m=1, r1=1, k_max=8)
    pm = projection_matrix(1)
    # the defect entry sits off the projection support so no float addition
    # can blur it; the reported gap is then the coefficient itself
    d_seq = [pm + unit(3, -2, 1.0 / k) for k in range(1, inst.k_max + 1)]
    g_seqs = [[pm] * inst.k_max, [pm] * inst.k_max]
    reports = {r.quantity: r for r in check_witness_conditions(inst, d_seq, g_seqs)}
    for k, v in reports["norm(D_k - P1)"].values:
        assert v == 1.0 / k


# ---------------------------------------------------------------------------
# pointwise checks on concrete seeds


def test_pointwise_projection_seed_attains_its_bounds():
    inst = canonical_instance(m=1, r1=1, k_max=30)
    reports = check_pointwise_decay(inst, [projection_matrix(1)])
    assert all_decay(reports)
    for rep in reports:
        assert rep.bounds is not None
        for (k, v), (_, b) in zip(rep.values, rep.bounds):
            assert v <= b + 1e-8
            assert math.isclose(v, b, rel_tol=1e-12)


def test_pointwise_values_scale_linearly_with_the_seed():
    inst = canonical_instance(m=1, r1=1, k_max=8)
    base = {r.quantity: r for r in check_pointwise_decay(inst, [projection_matrix(1)])}
    scaled = {
        r.quantity: r
        for r in check_pointwise_decay(inst, [projection_matrix(1) * 2.0])
    }
    for label, rep in base.items():
        for (k, v), (_, v2) in zip(rep.values, scaled[label].values):
            assert math.isclose(2.0 * v, v2, rel_tol=1e-10)


def test_pointwise_random_seed_decays():
    import random

    rng = random.Random(11)
    inst = canonical_instance(m=1, r1=1, k_max=40)
    reports = check_pointwise_decay(inst, [random_matrix(rng, 1, density=1.0)])
    assert all_decay(reports)


def test_pointwise_ufw_cuts_the_seed_on_the_right_and_bounds_by_the_row_cut():
    # F -> U F W: the shifts multiply F P_m on the right, so the bound is
    # ||P_m W_s^q W_l^p|| ||F||, which the projection seed P_m attains
    inst = canonical_instance(m=1, r1=1, k_max=5, orientation="UFW")
    reports = check_pointwise_decay(inst, [projection_matrix(1)])
    assert [r.quantity for r in reports] == [
        "norm(T1^(+1n) F0 P1)",
        "norm(T1^(+1n) T2^(-2n) F0 P1)",
        "norm(T1^(-1n) F0 P1)",
        "norm(T2^(+2n) F0 P1)",
        "norm(T2^(+2n) T1^(-1n) F0 P1)",
        "norm(T2^(-2n) F0 P1)",
    ]
    assert [v for _, v in reports[0].values][:2] == [2.0, 4.0]
    for rep in reports:
        for (_, v), (_, b) in zip(rep.values, rep.bounds):
            assert math.isclose(v, b, rel_tol=1e-12)


def single_shift_instance(k_max=25) -> CriterionInstance:
    return CriterionInstance(
        shifts=(WeightedShift(WeightRule.piecewise(3.0, 3.0)),),
        unitary=translation(1),
        r_list=(1,),
        n_seq=NSeq.all_k(),
        m=1,
        k_max=k_max,
    )


def pointwise_seed():
    return unit(0, 0, 0.3) + unit(0, 1, 0.5) + unit(1, 0, 0.5)


def test_pointwise_bound_slack_is_relative_at_large_values():
    # values reach 3^25 * ||F||, where the dense norm of the seed and the
    # measured norm may differ in the last ulp
    reports = check_pointwise_decay(single_shift_instance(), [pointwise_seed()])
    assert max(v for rep in reports for _, v in rep.values) > 7e8


def test_pointwise_real_violation_still_raises(monkeypatch):
    import opdyn.criteria as criteria

    real = criteria.apply_power
    monkeypatch.setattr(
        criteria, "apply_power", lambda *a, **kw: real(*a, **kw) * (1.0 + 1e-9)
    )
    with pytest.raises(OpdynError, match="exceeds bound"):
        check_pointwise_decay(single_shift_instance(), [pointwise_seed()])


@st.composite
def shift_instances(draw):
    """1-3 plain or adjoint shifts, piecewise or explicit weights, m <= 4,
    either orientation."""
    n_ops = draw(st.integers(1, 3))
    return CriterionInstance(
        shifts=tuple(draw(weighted_shifts()) for _ in range(n_ops)),
        unitary=translation(draw(st.sampled_from((1, -1, 2)))),
        r_list=draw(increasing_r_lists(n_ops, 4)),
        n_seq=NSeq.all_k(),
        m=draw(st.integers(0, 4)),
        k_max=draw(st.integers(1, 6)),
        orientation=draw(st.sampled_from(("WFU", "UFW"))),
    )


@given(shift_instances())
@settings(max_examples=80, deadline=None)
def test_dual_families_are_the_row_cuts_of_the_reversed_chains(inst):
    got = {
        r.quantity: [v for _, v in r.values] for r in check_dual_sufficient(inst, 1e-6)
    }
    assert got == {
        dual_label(inst, chain): [
            _exp(cut_at(
                monomial_product_norm_rowcut, chain_factors(inst, chain[::-1], n), inst.m
            )[0])
            for n in inst.n_values()
        ]
        for chain in family_chains(inst.n_ops)
    }


@st.composite
def chain_instances(draw):
    """1-3 plain or adjoint shifts, either orientation, a translation or a
    table unitary, and a horizon that some chains pass."""
    n_ops = draw(st.integers(1, 3))
    translations = st.sampled_from((1, -1, 2)).map(translation)
    return CriterionInstance(
        shifts=tuple(draw(weighted_shifts()) for _ in range(n_ops)),
        unitary=draw(st.one_of(translations, table_unitaries())),
        r_list=draw(increasing_r_lists(n_ops, 4)),
        n_seq=NSeq.all_k(),
        m=2,
        horizon=draw(st.sampled_from((12, DEFAULT_HORIZON))),
        orientation=draw(st.sampled_from(("WFU", "UFW"))),
    )


def bits(x):
    """Rows, columns and value bits of a matrix or a functional's representer."""
    a = x.representer if isinstance(x, FunctionalRep) else x
    return a._rows.tobytes(), a._cols.tobytes(), a._vals.tobytes()


@given(chain_instances(), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chain_apply_is_the_per_factor_walk_rightmost_first(inst, n, seed):
    # the primal action on matrices, and the transposed one on functionals
    x = random_matrix(random.Random(seed), 2)
    ops = inst.elementary_ops()
    kw = dict(horizon=inst.horizon, window_cap=inst.window_cap)
    for chain in family_chains(inst.n_ops) + [()]:
        for power, y, extra in (
            (apply_power, x, {}),
            (dual_apply_power, FunctionalRep(x), {"power": dual_apply_power}),
        ):
            def walk(z=y):
                for l, sign in reversed(chain):
                    z = power(ops[l - 1], sign * inst.r_list[l - 1] * n, z, **kw)
                return bits(z)

            got = outcome(lambda: bits(chain_apply(inst, chain, n, y, **extra)))
            assert got == outcome(walk)


@given(shift_instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pointwise_bounds_are_the_cut_on_the_side_the_shifts_act(inst, seed):
    # WFU: ||W_l^p W_s^q P_m|| ||F||; UFW: ||P_m W_s^q W_l^p|| ||F||
    f = random_matrix(random.Random(seed), inst.m + 1)
    got = {r.quantity: [b for _, b in r.bounds] for r in check_pointwise_decay(inst, [f])}
    ufw = inst.orientation == "UFW"
    seed_label = f"F0 P{inst.m}" if ufw else f"P{inst.m} F0"
    want = {}
    for chain in family_chains(inst.n_ops):
        cuts = [
            cut_at(monomial_product_norm_rowcut, factors[::-1], inst.m)
            if ufw
            else cut_at(monomial_product_norm, factors, inst.m)
            for factors in (chain_factors(inst, chain, n) for n in inst.n_values())
        ]
        label = f"norm({chain_terms(inst, chain, 'T')} {seed_label})"
        want[label] = [_exp(lg) * op_norm(f) for lg, _ in cuts]
    assert got == want


@st.composite
def n_seqs(draw):
    """all-k, arithmetic, or explicit iterates, the last possibly past int64."""
    kind = draw(st.sampled_from(("all-k", "arithmetic", "explicit")))
    if kind == "all-k":
        return NSeq.all_k()
    if kind == "arithmetic":
        return NSeq.arithmetic(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    values = st.one_of(st.integers(1, 40), st.sampled_from((2**63, 10**23)))
    return NSeq.explicit(sorted(draw(st.sets(values, min_size=1, max_size=8))))


@st.composite
def iterate_instances(draw):
    """1-3 plain or adjoint shifts, piecewise or explicit weights, m <= 6,
    any iterate rule, and a horizon that the powers often pass."""
    n_ops = draw(st.integers(1, 3))
    n_seq = draw(n_seqs())
    top = len(n_seq.values) if n_seq.kind == "explicit" else 8
    return CriterionInstance(
        shifts=tuple(draw(weighted_shifts()) for _ in range(n_ops)),
        unitary=translation(1),
        r_list=draw(increasing_r_lists(n_ops, 4)),
        n_seq=n_seq,
        m=draw(st.integers(0, 6)),
        k_max=draw(st.integers(1, top)),
        horizon=draw(st.sampled_from((12, 40, 10_000))),
    )


@given(iterate_instances())
@settings(max_examples=150, deadline=None)
def test_one_walk_over_all_iterates_is_the_walk_one_iterate_at_a_time(inst):
    ns = inst.n_values()

    def per_iterate():
        return {
            chain: [
                scalar_column_cut(chain_factors(inst, chain, n), inst.m, inst.horizon)[0]
                for n in ns
            ]
            for chain in family_chains(inst.n_ops)
        }

    # equal log values, or the same error and message
    assert outcome(_family_cuts, inst, ns) == outcome(per_iterate)


# ---------------------------------------------------------------------------
# subsequence search


def test_search_subsequence_closed_form_schedule():
    inst = canonical_instance(m=0, r1=1)
    # every family at m=0 is dominated by 2^{-n}, so a halving schedule
    # starting from 1.5 accepts each n >= k in turn
    assert search_subsequence(inst, range(1, 21), 5, tol=1.5) == (1, 2, 3, 4, 5)


def test_search_subsequence_with_huge_tolerance_takes_the_pool_head():
    inst = canonical_instance(m=0, r1=1)
    assert search_subsequence(inst, range(1, 11), 10, tol=1e6) == tuple(range(1, 11))


def test_search_subsequence_unit_weights_finds_nothing():
    assert search_subsequence(flat_instance(), range(1, 11), 1, tol=0.5) is None


def test_search_subsequence_exhausted_pool_returns_none():
    inst = canonical_instance(m=0, r1=1)
    assert search_subsequence(inst, range(1, 4), 5, tol=1.5) is None


def test_search_subsequence_agrees_with_documented_greedy_rule():
    inst = canonical_instance(m=2, r1=1)
    pool = [9, 1, 4, 30, 12, 25, 2, 18]
    tol = 1e-3
    chosen: list[int] = []
    for n in sorted(set(pool)):
        threshold = math.log(tol) - (len(chosen) + 1) * math.log(2.0)
        if all(lg < threshold for _, lg in sufficient_decay_logs(inst, n)):
            chosen.append(n)
        if len(chosen) == 3:
            break
    want = tuple(chosen) if len(chosen) == 3 else None
    assert search_subsequence(inst, pool, 3, tol=tol) == want


# ---------------------------------------------------------------------------
# rendering


def test_write_reports_csv_layout():
    rep_a = make_report("alpha", [1, 2], [0.5, 0.01], 1e-1, bounds=[1.0, 0.5])
    rep_b = make_report("beta", [1, 2], [1.0, 1.0], 1e-1)
    buf = io.StringIO()
    write_reports_csv([rep_a, rep_b], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "quantity,k,n_k,value,bound,verdict"
    assert lines[1] == (
        "alpha,1,1,5.0000000000000000e-01,1.0000000000000000e+00,"
        f"decays-below({0.1!r} at k=2)"
    )
    assert lines[2] == (
        "alpha,2,2,1.0000000000000000e-02,5.0000000000000000e-01,"
        f"decays-below({0.1!r} at k=2)"
    )
    assert lines[3] == "beta,1,1,1.0000000000000000e+00,,fails"


def test_render_summary_lists_every_family_and_the_overall_line():
    inst = canonical_instance(m=0, r1=1, k_max=25)
    reports = check_sufficient_decay(inst)
    text = render_summary(reports)
    for rep in reports:
        assert rep.quantity in text
    assert "all-decays: yes" in text

    bad = render_summary(check_sufficient_decay(flat_instance()))
    assert "all-decays: no" in bad


def test_reports_are_deterministic():
    def bytes_for():
        inst = canonical_instance(m=1, r1=2, k_max=15)
        buf = io.StringIO()
        write_reports_csv(check_sufficient_decay(inst), buf)
        return buf.getvalue()

    assert bytes_for() == bytes_for()
