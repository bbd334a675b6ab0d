"""Top-level acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
asserts the criterion at its stated tolerance.  Random draws use fixed seeds.
"""

import math
import random
import time
from fractions import Fraction

from _util import (
    canonical_instance,
    cross_label,
    cut_at,
    dual_cross_label,
    dual_single_label,
    flog,
    frac_chain_norm,
    frac_w1,
    frac_w2,
    neg_label,
    pos_label,
    translation,
    unit_norm_matrix,
    w1,
    w2,
)
from opdyn import (
    CriterionInstance,
    NSeq,
    PermutationUnitary,
    WeightedShift,
    WeightRule,
    apply_power,
    compose,
    escape_index,
    monomial_product_norm,
    op_norm,
    projection_matrix,
    trace_norm,
    unit,
)
from opdyn.cli import main
from opdyn.constructor import (
    TargetTuple,
    construct_approximant,
    default_bundle,
    verify_approximant_convergence,
)
from opdyn.criteria import check_sufficient_decay
from opdyn.duality import (
    FunctionalRep,
    check_dual_sufficient,
    default_probes,
    dual_apply_power,
    eval_functional,
    verify_dual_convergence,
)
from opdyn.elementary import ElementaryOp
from opdyn.finmat import FiniteMatrix, _singular_values

GRID = [(m, r1) for m in range(5) for r1 in (1, 2)]


def report(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def log_close(value: float, oracle_log: float, tol: float) -> bool:
    return abs(math.log(value) - oracle_log) <= tol * max(1.0, abs(oracle_log))


def log_at_most(value: float, bound_log: float, tol: float) -> bool:
    return math.log(value) <= bound_log + tol * max(1.0, abs(bound_log))


def test_acceptance_1_forward_cross_bound():
    cases = []
    start = time.perf_counter()
    for m, r1 in GRID:
        for n in range(1, 41):
            p = r1 * n
            lg, _ = cut_at(monomial_product_norm, [(w1(), p), (w2(), -2 * p)], m)
            cases.append((m, p, math.exp(lg)))
    elapsed = time.perf_counter() - start

    ok = elapsed < 1.0
    for m, p, value in cases:
        frac, _ = frac_chain_norm([(frac_w1, p), (frac_w2, -2 * p)], m)
        tight = Fraction(3) ** (2 * m) * Fraction(2) ** p / Fraction(3) ** (2 * p)
        weak = Fraction(3) ** (2 * m) / Fraction(3) ** p
        ok = (
            ok
            and log_close(value, flog(frac), 1e-10)
            and log_at_most(value, flog(tight), 1e-10)
            and tight <= weak
        )
    report(1, "forward cross-term bound chain", ok)


def test_acceptance_2_mirror_cross_bound():
    ok = True
    for m, r1 in GRID:
        for n in range(1, 41):
            p = r1 * n
            lg, _ = cut_at(monomial_product_norm, [(w2(), 2 * p), (w1(), -p)], m)
            frac, _ = frac_chain_norm([(frac_w2, 2 * p), (frac_w1, -p)], m)
            bound = Fraction(3) ** (2 * m) / Fraction(2) ** p
            ok = (
                ok
                and log_close(math.exp(lg), flog(frac), 1e-10)
                and log_at_most(math.exp(lg), flog(bound), 1e-10)
            )
    report(2, "mirror cross-term bound", ok)


def test_acceptance_3_escape_condition():
    ok = all(escape_index(translation(1), m, 200) == 2 * m + 1 for m in range(21))
    report(3, "translation escape index", ok)


def test_acceptance_4_synthesis_with_random_targets():
    rng = random.Random(42)
    inst = canonical_instance(m=1, r1=1, k_max=50)
    bundle = default_bundle(inst)
    targets = TargetTuple(
        unit_norm_matrix(rng, 1),
        (unit_norm_matrix(rng, 1), unit_norm_matrix(rng, 1)),
        1,
    )

    start = time.perf_counter()
    reports, _ = verify_approximant_convergence(bundle, targets, inst, 1e-6)
    elapsed = time.perf_counter() - start
    by_label = {r.quantity: dict(r.values) for r in reports}

    ok = elapsed < 10.0
    for label in (
        "dist(phi_k - P1 F)",
        "dist(T1^(+1n) phi_k - P1 E1)",
        "dist(T2^(+2n) phi_k - P1 E2)",
    ):
        ok = ok and all(by_label[label][k] < 1e-6 for k in range(40, 51))

    terms = {
        "dist(phi_k - P1 F)": (
            "norm((D_k - P1) F)",
            "norm(S1^(1n) G1_k E1)",
            "norm(S2^(2n) G2_k E2)",
        ),
        "dist(T1^(+1n) phi_k - P1 E1)": (
            "norm(T1^(+1n) D_k F)",
            "norm(G1_k E1 - P1 E1)",
            "norm(T1^(+1n) S2^(2n) G2_k E2)",
        ),
        "dist(T2^(+2n) phi_k - P1 E2)": (
            "norm(T2^(+2n) D_k F)",
            "norm(G2_k E2 - P1 E2)",
            "norm(T2^(+2n) S1^(1n) G1_k E1)",
        ),
    }
    for label, parts in terms.items():
        for k in range(1, 51):
            total = sum(by_label[p][k] for p in parts)
            ok = ok and by_label[label][k] <= total + 1e-8
    report(4, "approximant synthesis to random targets", ok)


def test_acceptance_5_single_operator_closed_form():
    inst = CriterionInstance(
        shifts=(w1(),),
        unitary=translation(1),
        r_list=(1,),
        n_seq=NSeq.all_k(),
        m=0,
        k_max=30,
    )
    bundle = default_bundle(inst)
    p0 = projection_matrix(0)
    targets = TargetTuple(p0, (p0,), 0)
    ok = True
    for k in range(1, 31):
        phi, _, _ = construct_approximant(bundle, targets, inst, k)
        d = op_norm(phi - p0)
        ok = ok and abs(d - 2.0**-k) <= 1e-12 * 2.0**-k
    report(5, "single-operator closed-form distance", ok)


def test_acceptance_6_pairing_identity_on_random_instances():
    rng = random.Random(2026)
    ok = True
    for _ in range(200):
        rule = WeightRule.piecewise(rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5))
        shift = WeightedShift(rule)
        t = rng.choice([-3, -2, -1, 1, 2, 3])
        orientation = rng.choice(["WFU", "UFW"])
        op = ElementaryOp(PermutationUnitary.translation(t), shift, orientation)
        p = rng.randint(-8, 8)
        phi = FunctionalRep(FiniteMatrix({
            (rng.randint(-4, 4), rng.randint(-4, 4)): rng.uniform(-2.0, 2.0)
            for _ in range(rng.randint(1, 6))
        }))
        f = FiniteMatrix({
            (rng.randint(-4, 4), rng.randint(-4, 4)): rng.uniform(-2.0, 2.0)
            for _ in range(rng.randint(1, 6))
        })
        lhs = eval_functional(dual_apply_power(op, p, phi), f)
        rhs = eval_functional(phi, apply_power(op, p, f))
        ok = ok and abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))
    report(6, "transposed-action pairing identity", ok)


def test_acceptance_7_adjoint_symmetry_and_weak_star_decay():
    ok = True
    for m, r1 in GRID:
        inst = canonical_instance(m=m, r1=r1, k_max=40)
        dual = {r.quantity: r for r in check_dual_sufficient(inst.star(), 1e-6)}
        primal = {r.quantity: r for r in check_sufficient_decay(inst, 1e-6)}
        pairs = [
            (dual_single_label(m, 1, r1, "+", True), pos_label(1, r1, m)),
            (dual_single_label(m, 1, r1, "-", True), neg_label(1, r1, m)),
            (dual_single_label(m, 2, 2 * r1, "+", True), pos_label(2, 2 * r1, m)),
            (dual_single_label(m, 2, 2 * r1, "-", True), neg_label(2, 2 * r1, m)),
            (dual_cross_label(m, 2, 2 * r1, 1, r1, True), cross_label(1, r1, 2, 2 * r1, m)),
            (dual_cross_label(m, 1, r1, 2, 2 * r1, True), cross_label(2, 2 * r1, 1, r1, m)),
        ]
        for dlabel, plabel in pairs:
            for (_, vd), (_, vp) in zip(dual[dlabel].values, primal[plabel].values):
                ok = ok and log_close(vd, math.log(vp), 1e-10)

    inst = canonical_instance(m=1, r1=1, k_max=50)
    bundle = default_bundle(inst)
    psi = FunctionalRep(projection_matrix(1))
    phis = [FunctionalRep(unit(0, 0)), FunctionalRep(unit(0, 0))]
    reports, _ = verify_dual_convergence(
        bundle, psi, phis, inst.star(), default_probes(1), 1e-6
    )
    eta_vals = dict(
        next(r for r in reports if r.quantity == "wstar-dist(eta_k - M_P1 psi)").values
    )
    ok = ok and all(eta_vals[k] < 1e-6 for k in range(40, 51))
    report(7, "adjoint-side symmetry and weak-star decay", ok)


def test_acceptance_8_norm_oracle_equivalence():
    rng = random.Random(7)
    ok = True
    for _ in range(500):
        count = rng.randint(1, 8)
        rows = rng.sample(range(-40, 41), count)
        cols = rng.sample(range(-40, 41), count)
        a = FiniteMatrix({
            (i, j): rng.uniform(-10.0, 10.0) for i, j in zip(rows, cols)
        })
        want = max(abs(v) for _, v in a.items())
        got = float(_singular_values(a)[0])
        ok = ok and abs(got - want) <= 1e-8 * (1.0 + want)
        ok = ok and op_norm(a) == want

    block = unit(0, 0) + unit(0, 1) + unit(1, 1)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    ok = ok and abs(op_norm(block) - golden) <= 1e-8

    for _ in range(200):
        f = FiniteMatrix({
            (rng.randint(-3, 3), rng.randint(-3, 3)): rng.uniform(-3.0, 3.0)
            for _ in range(rng.randint(1, 10))
        })
        d = FiniteMatrix({
            (rng.randint(-3, 3), rng.randint(-3, 3)): rng.uniform(-3.0, 3.0)
            for _ in range(rng.randint(1, 10))
        })
        ok = ok and trace_norm(compose(f, d)) <= trace_norm(f) * op_norm(d) + 1e-8
    report(8, "norm oracle equivalence", ok)


def test_acceptance_9_deterministic_reports(tmp_path):
    ok = True
    for name in ("example24", "example28"):
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        ok = ok and main(["run", name, "--out", str(out_a)]) == 0
        ok = ok and main(["run", name, "--out", str(out_b)]) == 0
        ok = ok and (
            (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        )
    report(9, "byte-identical reports across runs", ok)
