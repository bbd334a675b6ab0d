"""Trace pairings, transposed transport, and weak-star approximation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import (
    canonical_instance,
    cross_label,
    dual_cross_label,
    dual_single_label,
    log_rel_close,
    neg_label,
    pos_label,
    power_at,
    random_matrix,
    translation,
    unit_norm_matrix,
    w1,
    w2,
)
from opdyn import (
    CriterionInstance,
    FiniteMatrix,
    NSeq,
    apply_power,
    compose,
    op_norm,
    projection_matrix,
    trace_norm,
    truncate_right,
    unit,
)
from opdyn.constructor import WitnessBundle, default_bundle
from opdyn.criteria import all_decay, check_sufficient_decay
from opdyn.duality import (
    FunctionalRep,
    TestSet,
    _probe_values,
    check_dual_sufficient,
    check_dual_witness_conditions,
    construct_dual_approximant,
    default_probes,
    dual_apply_power,
    eval_functional,
    m_d,
    strong_limit_distance,
    verify_dual_convergence,
    weak_star_distance,
)
from opdyn.elementary import ElementaryOp

small_matrices = st.builds(
    random_matrix,
    rng=st.randoms(use_true_random=False),
    m=st.integers(min_value=0, max_value=2),
)


def op1(orientation="WFU") -> ElementaryOp:
    return ElementaryOp(translation(1), w1(), orientation)


# ---------------------------------------------------------------------------
# trace pairing


def test_eval_functional_examples():
    assert eval_functional(FunctionalRep(unit(0, 0)), projection_matrix(3)) == 1.0
    assert eval_functional(FunctionalRep(unit(1, -1)), unit(-1, 1, 2.0)) == 2.0
    assert eval_functional(FunctionalRep(unit(1, -1)), FiniteMatrix()) == 0.0


@given(small_matrices, small_matrices)
@settings(max_examples=40)
def test_eval_functional_is_the_trace_of_the_product(a, f):
    want = math.fsum(v for (i, j), v in compose(a, f).items() if i == j)
    got = eval_functional(FunctionalRep(a), f)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# multiplication functionals


def test_m_d_examples():
    phi = FunctionalRep(unit(0, 0))
    assert m_d(phi, projection_matrix(5) * 2.0).representer == unit(0, 0, 2.0)
    assert m_d(phi, projection_matrix(5)).representer == unit(0, 0)
    hole = projection_matrix(5) - projection_matrix(0)
    assert m_d(phi, hole).representer.is_zero()


def test_m_d_with_a_projection_is_the_column_cut():
    a = unit(0, 3, 2.0) + unit(1, 1, -1.0)
    phi = FunctionalRep(a)
    assert m_d(phi, projection_matrix(1)).representer == truncate_right(a, 1)


@given(small_matrices, small_matrices, small_matrices)
@settings(max_examples=30)
def test_m_d_composes_contravariantly(a, d1, d2):
    phi = FunctionalRep(a)
    twice = m_d(m_d(phi, d1), d2).representer
    direct = compose(compose(a, d1), d2)
    diff = twice - direct
    assert all(abs(v) <= 1e-12 for _, v in diff.items())


# ---------------------------------------------------------------------------
# transposed transport


def test_dual_apply_power_moves_the_representer_the_other_way():
    got = dual_apply_power(op1(), 1, FunctionalRep(unit(0, 0)))
    assert got.representer == unit(1, -1, 2.0)


def test_dual_apply_power_zero_is_identity():
    phi = FunctionalRep(unit(2, -1, 3.0))
    assert dual_apply_power(op1(), 0, phi).representer == phi.representer


@given(small_matrices, st.integers(min_value=-6, max_value=6))
@settings(max_examples=40)
def test_dual_apply_power_inverse_round_trip(a, p):
    phi = FunctionalRep(a)
    back = dual_apply_power(op1(), -p, dual_apply_power(op1(), p, phi))
    diff = back.representer - a
    scale = max((abs(v) for _, v in a.items()), default=1.0)
    assert all(abs(v) <= 1e-12 * (1.0 + scale) for _, v in diff.items())


@given(
    small_matrices,
    small_matrices,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from(["WFU", "UFW"]),
    st.sampled_from([1, 2]),
)
@settings(max_examples=80)
def test_transposed_action_matches_the_pairing(a, f, p, orientation, which):
    shift = w1() if which == 1 else w2()
    op = ElementaryOp(translation(1), shift, orientation)
    phi = FunctionalRep(a)
    lhs = eval_functional(dual_apply_power(op, p, phi), f)
    rhs = eval_functional(phi, apply_power(op, p, f))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def dense_shift_power_matrix(shift, p, span) -> FiniteMatrix:
    from opdyn.lattice import shift_power_apply

    entries = {}
    for j in range(-span, span + 1):
        index, lg = power_at(shift_power_apply, shift, p, j)
        entries[(index, j)] = math.exp(lg)
    return FiniteMatrix(entries)


def dense_translation_matrix(t, p, span) -> FiniteMatrix:
    return FiniteMatrix({(j + p * t, j): 1.0 for j in range(-span, span + 1)})


@given(small_matrices, st.integers(min_value=-4, max_value=4), st.sampled_from(["WFU", "UFW"]))
@settings(max_examples=40)
def test_starred_transposed_action_matches_dense_adjoint_product(a, p, orientation):
    op = ElementaryOp(translation(1), w2().star(), orientation)
    got = dual_apply_power(op, p, FunctionalRep(a)).representer
    span = a.support_radius() + 3 * abs(p) + 2
    wp = dense_shift_power_matrix(w2(), p, span).transpose()  # (W^p)* for real weights
    up = dense_translation_matrix(1, p, span)
    if orientation == "WFU":
        want = compose(compose(up, a), wp)
    else:
        want = compose(compose(wp, a), up)
    diff = got - want
    assert all(abs(v) <= 1e-12 for _, v in diff.items())


# ---------------------------------------------------------------------------
# probe sets and distances


def test_test_set_rejects_oversized_or_empty_probes():
    with pytest.raises(ValueError):
        TestSet(probes=())
    with pytest.raises(ValueError):
        TestSet(probes=(unit(0, 0, 2.0),))
    TestSet(probes=(unit(0, 0, 1.0),))


def test_default_probes_cover_projections_and_units():
    ts = default_probes(2)
    assert len(ts.probes) == 3 + 25
    assert all(op_norm(p) <= 1.0 + 1e-12 for p in ts.probes)
    assert projection_matrix(0) in list(ts.probes)
    assert unit(2, -2) in list(ts.probes)


def test_weak_star_distance_examples():
    probes = default_probes(1)
    phi = FunctionalRep(unit(0, 0))
    assert weak_star_distance(phi, phi, probes) == 0.0
    zero = FunctionalRep(FiniteMatrix())
    assert weak_star_distance(phi, zero, probes) == 1.0


@st.composite
def overlapping_probe_sets(draw):
    """Probe sets on a window [-m, m] whose supports overlap: projections,
    scaled matrix units and scaled dense probes, each pick possibly repeated."""
    m = draw(st.integers(min_value=0, max_value=2))
    rng = draw(st.randoms(use_true_random=False))
    pool = [projection_matrix(j) for j in range(m + 1)]
    pool += [
        unit(i, j, rng.choice([1.0, -1.0, rng.uniform(-1.0, 1.0)]))
        for i in range(-m, m + 1)
        for j in range(-m, m + 1)
    ]
    for _ in range(3):
        dense = random_matrix(rng, m, density=1.0, scale=1.0)
        if op_norm(dense) > 1e-6:
            pool.append(dense * (rng.uniform(0.1, 1.0) / op_norm(dense)))
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=1, max_size=16)
    )
    return TestSet(probes=tuple(pool[i] for i in picks))


# representers reach up to two indices past every probe's window
wide_functionals = st.builds(
    lambda rng, m, scale: FunctionalRep(random_matrix(rng, m, scale=scale)),
    rng=st.randoms(use_true_random=False),
    m=st.integers(min_value=0, max_value=4),
    scale=st.sampled_from([1e-3, 4.0, 1e6]),
)


@given(overlapping_probe_sets(), wide_functionals, wide_functionals)
@settings(max_examples=80)
def test_one_pass_probe_values_equal_the_per_probe_pairings(probes, phi, psi):
    per_probe = [eval_functional(phi, f) for f in probes.probes]
    assert _probe_values(phi, probes) == per_probe
    assert weak_star_distance(phi, psi, probes) == max(
        abs(v - eval_functional(psi, f)) for v, f in zip(per_probe, probes.probes)
    )


def test_strong_limit_distance_reads_columns_inside_the_window():
    a = projection_matrix(2)
    assert strong_limit_distance(a, a, 2) == 0.0
    b = a + unit(0, 0, 1e-3)
    assert math.isclose(strong_limit_distance(a, b, 2), 1e-3, rel_tol=1e-12)
    c = a + unit(0, 7, 5.0)  # column 7 sits outside the inspected window
    assert strong_limit_distance(a, c, 2) == 0.0


# ---------------------------------------------------------------------------
# adjoint-side decay families


@pytest.mark.parametrize("m", [0, 1, 2])
def test_dual_sufficient_star_families_match_the_primal_families(m):
    inst = canonical_instance(m=m, r1=1, k_max=40)
    dual = {r.quantity: r for r in check_dual_sufficient(inst.star(), 1e-6)}
    primal = {r.quantity: r for r in check_sufficient_decay(inst, 1e-6)}
    pairs = [
        (dual_single_label(m, 1, 1, "+", True), pos_label(1, 1, m)),
        (dual_single_label(m, 1, 1, "-", True), neg_label(1, 1, m)),
        (dual_single_label(m, 2, 2, "+", True), pos_label(2, 2, m)),
        (dual_single_label(m, 2, 2, "-", True), neg_label(2, 2, m)),
        (dual_cross_label(m, 2, 2, 1, 1, True), cross_label(1, 1, 2, 2, m)),
        (dual_cross_label(m, 1, 1, 2, 2, True), cross_label(2, 2, 1, 1, m)),
    ]
    assert set(dual) == {d for d, _ in pairs}
    for dlabel, plabel in pairs:
        for (k, vd), (_, vp) in zip(dual[dlabel].values, primal[plabel].values):
            assert log_rel_close(vd, math.log(vp), 1e-10)
    assert all_decay(dual.values())


def test_dual_sufficient_without_star_grows_for_the_doubling_weight():
    inst = canonical_instance(m=0, r1=1, k_max=10)
    reports = {r.quantity: r for r in check_dual_sufficient(inst, 1e-6)}
    rep = reports[dual_single_label(0, 1, 1, "+", False)]
    for k, v in rep.values:
        assert log_rel_close(v, k * math.log(2.0), 1e-10)
    assert rep.verdict.kind == "fails"


def test_dual_witness_conditions_reduce_to_dual_sufficient_on_projections():
    inst = canonical_instance(m=1, r1=1, k_max=15)
    bundle = default_bundle(inst)
    witness = {r.quantity: r for r in check_dual_witness_conditions(inst.star(), bundle, 1e-6)}
    plain = {r.quantity: r for r in check_dual_sufficient(inst.star(), 1e-6)}
    pair_map = {
        "norm(D_k W1^(*+1n))": dual_single_label(1, 1, 1, "+", True),
        "norm(D_k W2^(*+2n))": dual_single_label(1, 2, 2, "+", True),
        "norm(G1_k W1^(*-1n))": dual_single_label(1, 1, 1, "-", True),
        "norm(G2_k W2^(*-2n))": dual_single_label(1, 2, 2, "-", True),
        "norm(G2_k W2^(*-2n) W1^(*+1n))": dual_cross_label(1, 2, 2, 1, 1, True),
        "norm(G1_k W1^(*-1n) W2^(*+2n))": dual_cross_label(1, 1, 1, 2, 2, True),
    }
    for wlabel, plabel in pair_map.items():
        for (k, vw), (_, vp) in zip(witness[wlabel].values, plain[plabel].values):
            assert math.isclose(vw, vp, rel_tol=1e-12)
    for label in ("slim-dist(D_k - P1)", "slim-dist(G1_k - P1)", "slim-dist(G2_k - P1)"):
        assert all(v == 0.0 for _, v in witness[label].values)


def test_dual_witness_cross_family_pairs_with_the_inverse_operator_witness():
    # G^(2) = P_1 / 2: the cross family under W_2^{-} is measured on G^(2),
    # the witness of the operator whose inverse power it applies, as in the
    # eta_k majorant and the primal cross family.
    inst = canonical_instance(m=1, r1=1, k_max=10)
    base = default_bundle(inst)
    half = projection_matrix(1) * 0.5
    bundle = WitnessBundle(
        m=base.m,
        n_values=base.n_values,
        d_seq=base.d_seq,
        g_seqs=(base.g_seqs[0], (half,) * base.k_max),
    )
    witness = {r.quantity: r for r in check_dual_witness_conditions(inst.star(), bundle, 1e-6)}
    plain = {r.quantity: r for r in check_dual_sufficient(inst.star(), 1e-6)}
    halved = witness["norm(G2_k W2^(*-2n) W1^(*+1n))"].values
    for (k, vw), (_, vp) in zip(halved, plain[dual_cross_label(1, 2, 2, 1, 1, True)].values):
        assert math.isclose(vw, 0.5 * vp, rel_tol=1e-12)
    kept = witness["norm(G1_k W1^(*-1n) W2^(*+2n))"].values
    for (k, vw), (_, vp) in zip(kept, plain[dual_cross_label(1, 1, 1, 2, 2, True)].values):
        assert math.isclose(vw, vp, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# dual approximants


def test_dual_approximant_with_zero_functionals_is_a_multiplication():
    rng = random.Random(3)
    inst = canonical_instance(m=1, r1=1, k_max=6)
    bundle = default_bundle(inst)
    a = random_matrix(rng, 2)
    psi = FunctionalRep(a)
    zeros = [FunctionalRep(FiniteMatrix())] * 2
    eta = construct_dual_approximant(bundle, psi, zeros, inst, 3)
    assert eta.representer == truncate_right(a, 1)


def test_dual_approximant_with_zero_psi_is_a_single_transported_monomial():
    inst = CriterionInstance(
        shifts=(w1(),),
        unitary=translation(1),
        r_list=(1,),
        n_seq=NSeq.all_k(),
        m=0,
        k_max=10,
    )
    bundle = default_bundle(inst)
    psi = FunctionalRep(FiniteMatrix())
    phi = FunctionalRep(unit(0, 0))
    for k in (1, 3, 7):
        eta = construct_dual_approximant(bundle, psi, [phi], inst, k)
        rep = eta.representer
        assert rep.nnz == 1
        got = rep.entry(-k, k)
        assert math.isclose(got, 2.0**k, rel_tol=1e-12)


def test_verify_dual_convergence_decays_and_respects_bounds():
    inst = canonical_instance(m=1, r1=1, k_max=40)
    bundle = default_bundle(inst)
    psi = FunctionalRep(projection_matrix(1))
    phis = [FunctionalRep(unit(0, 0)), FunctionalRep(unit(0, 0))]
    reports, etas = verify_dual_convergence(
        bundle, psi, phis, inst.star(), default_probes(1), 1e-6
    )
    assert len(etas) == inst.k_max
    assert all_decay(reports)
    for rep in reports:
        assert rep.bounds is not None
        for (k, v), (_, b) in zip(rep.values, rep.bounds):
            assert v <= b + 1e-8


def test_verify_dual_convergence_rows_equal_the_per_probe_spelling():
    """Rows and bounds of the one-pass verifier against eval_functional,
    probe by probe, on perturbed witnesses and a probe set that is not
    closed under transposition, so a transposed pairing shows."""
    rng = random.Random(7)
    inst = canonical_instance(m=2, r1=1, k_max=8).star()
    ns = inst.n_values()
    pn = projection_matrix(2)
    bundle = WitnessBundle(
        m=2,
        n_values=ns,
        d_seq=tuple(pn + random_matrix(rng, 2, scale=4.0**-k) for k in ns),
        g_seqs=tuple(
            tuple(pn + random_matrix(rng, 2, scale=4.0**-k) for k in ns) for _ in range(2)
        ),
    )
    psi = FunctionalRep(random_matrix(rng, 2))
    phis = [FunctionalRep(random_matrix(rng, 2)) for _ in range(2)]
    probes = TestSet(
        probes=tuple(projection_matrix(j) for j in range(3))
        + tuple(unit(i, j) for i in range(-2, 3) for j in range(i, 3))
        + (unit_norm_matrix(rng, 2),)
    )
    reports, etas = verify_dual_convergence(bundle, psi, phis, inst, probes, 1e-6)

    def dist(phi, target):
        return max(
            abs(eval_functional(phi, f) - eval_functional(target, f)) for f in probes.probes
        )

    cut = WitnessBundle(
        m=2,
        n_values=ns,
        d_seq=tuple(compose(pn, d) for d in bundle.d_seq),
        g_seqs=tuple(tuple(compose(pn, g) for g in seq) for seq in bundle.g_seqs),
    )
    fam = {
        r.quantity: [v for _, v in r.values]
        for r in check_dual_witness_conditions(inst, cut, 1e-6)
    }
    psi_tn = trace_norm(psi.representer)
    phi_tns = [trace_norm(phi.representer) for phi in phis]
    r = inst.r_list
    ops = inst.elementary_ops()

    vals = [dist(eta, m_d(psi, projection_matrix(2))) for eta in etas]
    bounds = []
    for k in range(inst.k_max):
        bound = psi_tn * op_norm(cut.d_seq[k] - pn)
        for l in (1, 2):
            bound += phi_tns[l - 1] * fam[f"norm(G{l}_k W{l}^(*-{r[l - 1]}n))"][k]
        bounds.append(bound)
    expected = [(vals, bounds)]
    for l, s in ((1, 2), (2, 1)):
        target = m_d(phis[l - 1], projection_matrix(2))
        vals = [
            dist(dual_apply_power(ops[l - 1], r[l - 1] * n, eta), target)
            for n, eta in zip(ns, etas)
        ]
        cross = f"norm(G{s}_k W{s}^(*-{r[s - 1]}n) W{l}^(*+{r[l - 1]}n))"
        bounds = [
            psi_tn * fam[f"norm(D_k W{l}^(*+{r[l - 1]}n))"][k]
            + phi_tns[l - 1] * op_norm(cut.g_seqs[l - 1][k] - pn)
            + phi_tns[s - 1] * fam[cross][k]
            for k in range(inst.k_max)
        ]
        expected.append((vals, bounds))

    assert len(reports) == 3
    for rep, (vals, bounds) in zip(reports, expected):
        assert [v for _, v in rep.values] == vals
        assert [b for _, b in rep.bounds] == bounds
