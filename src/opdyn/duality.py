"""Functionals with finite trace representers and their transported images.

A functional here is phi_A(F) = trace(A F) for a finitely supported matrix A.
Composition with a fixed left factor D gives another such functional with
representer A D, and the transpose action of an elementary operator moves the
representer by two-sided transport: for T(F) = W F U the image of phi_A under
the transpose has representer U^p A W^p.  Weak-* convergence statements are
proxied by a finite probe set of unit-norm matrices, which is enough to
separate finite representers but is documented as evidence, not proof.
A ``TestSet`` indexes its probe entries once, by the representer position
each pairs with, so one walk over a representer pairs it with every probe.

The transpose of an elementary operator is again elementary: trace(A W F U)
= trace(U A W F), so the transpose of F -> W F U is A -> U A W, the same
operator with its orientation flipped.  Scenarios that act by adjoint
weights pass an instance whose shifts are adjoint (``CriterionInstance.
star``); nothing here takes a flag for it.  The right-sided families
||P_m X|| are row cuts.  By the mirror identity ||P_m X|| = ||X* P_m|| each
is the primal column cut of the same family chain on ``inst.star()``, so
``check_dual_sufficient`` is the primal family walk on the adjoint instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .constructor import WitnessBundle
from .criteria import (
    Chain,
    CriterionInstance,
    DecayReport,
    _cut_reports,
    _family_norms,
    chain_terms,
    chain_witness,
    make_report,
)
from .elementary import ElementaryOp, apply_power
from .finmat import (
    DEFAULT_WINDOW_CAP,
    FiniteMatrix,
    compose,
    op_norm,
    projection_matrix,
    trace_norm,
    truncate_left,
    truncate_right,
)
from .lattice import DEFAULT_HORIZON


@dataclass(frozen=True)
class FunctionalRep:
    """phi(F) = trace(representer . F); linear in both arguments."""

    representer: FiniteMatrix


def eval_functional(phi: FunctionalRep, f: FiniteMatrix) -> float:
    """trace(A F) summed over the shared support of A and F."""
    terms = []
    for (p, q), v in phi.representer.items():
        w = f.entry(q, p)
        if w != 0.0:
            terms.append(v * w)
    return math.fsum(terms)


def m_d(phi: FunctionalRep, d: FiniteMatrix) -> FunctionalRep:
    """Composition with the fixed left factor D: F maps to phi(D F), whose
    representer is A D."""
    return FunctionalRep(compose(phi.representer, d))


def dual_apply_power(
    op: ElementaryOp,
    p: int,
    phi: FunctionalRep,
    *,
    horizon: int = DEFAULT_HORIZON,
    window_cap: int = DEFAULT_WINDOW_CAP,
) -> FunctionalRep:
    """Transpose action of op^p on the functional.

    For T(F) = W F U the representer moves to U^p A W^p; negative p gives the
    transposed inverse.  The mirrored orientation U F W moves it to W^p A U^p.
    Either way it is op^p with the orientation flipped.
    """
    flipped = replace(op, orientation="UFW" if op.orientation == "WFU" else "WFU")
    kwargs = dict(horizon=horizon, window_cap=window_cap)
    return FunctionalRep(apply_power(flipped, p, phi.representer, **kwargs))


@dataclass(frozen=True)
class TestSet:
    """Fixed finite family of probe matrices with operator norm at most 1."""

    # not a unit-test container, despite what the name suggests to pytest
    __test__ = False

    probes: tuple[FiniteMatrix, ...]
    # (p, q) -> [(probe number, F[q, p])]: the probe entries that the
    # representer entry A[p, q] pairs with under trace(A F)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.probes:
            raise ValueError("probe set must be nonempty")
        index = {}
        for k, mat in enumerate(self.probes):
            # a one-entry probe's norm is |value|, as op_norm finds it
            norm = abs(float(mat._vals[0])) if mat.nnz == 1 else op_norm(mat)
            if norm > 1.0 + 1e-12:
                raise ValueError("probe operator norm exceeds 1")
            for (q, p), w in mat.items():
                index.setdefault((p, q), []).append((k, w))
        object.__setattr__(self, "_index", index)


def default_probes(m: int) -> TestSet:
    """P_0..P_m followed by every matrix unit on the window, in fixed order."""
    probes = [projection_matrix(j) for j in range(m + 1)]
    window, one = np.arange(-m, m + 1), np.ones(1)
    probes.extend(
        FiniteMatrix._of(window[a : a + 1], window[b : b + 1], one)
        for a in range(2 * m + 1)
        for b in range(2 * m + 1)
    )
    return TestSet(probes=tuple(probes))


def _probe_values(phi: FunctionalRep, probes: TestSet) -> list[float]:
    """[eval_functional(phi, f) for f in probes.probes] in one walk over the
    representer.  Each probe gets the same products in the same order, so
    every value is bit-identical."""
    terms: list[list[float]] = [[] for _ in probes.probes]
    index = probes._index
    for key, v in phi.representer.items():
        for k, w in index.get(key, ()):
            terms[k].append(v * w)
    return [math.fsum(t) for t in terms]


def _distance_to(phi: FunctionalRep, target: list[float], probes: TestSet) -> float:
    # weak_star_distance to a functional given by its probe values
    return max(abs(v - t) for v, t in zip(_probe_values(phi, probes), target))


def weak_star_distance(
    phi: FunctionalRep, psi: FunctionalRep, probes: TestSet
) -> float:
    return _distance_to(phi, _probe_values(psi, probes), probes)


def strong_limit_distance(a: FiniteMatrix, b: FiniteMatrix, window: int) -> float:
    """max over basis vectors e_j, |j| <= window, of the column norm of
    (a - b) e_j; the finite proxy for strong convergence on the window."""
    diff = a - b
    sq: dict[int, float] = {}
    for (_, j), v in diff.items():
        sq[j] = sq.get(j, 0.0) + v * v
    return max(
        (math.sqrt(s) for j, s in sq.items() if abs(j) <= window),
        default=0.0,
    )


def dual_label(inst: CriterionInstance, chain: Chain) -> str:
    """Label of the right-sided mirror of a family: the reversed chain cut
    by P_m on the left."""
    return f"norm(P{inst.m} {chain_terms(inst, chain[::-1])})"


def check_dual_sufficient(inst: CriterionInstance, tol: float) -> list[DecayReport]:
    """Right-sided projected norms ||P_m W_l^{+r_l n}||, ||P_m W_l^{-r_l n}||
    and ||P_m W_s^{-r_s n} W_l^{+r_l n}|| along n_k; pass ``inst.star()``
    when the scenario acts by adjoints.

    Joint decay is the sufficient condition for the transposed operator
    tuple to mix finite-representer functionals.  Each family is the primal
    column cut of the same chain on ``inst.star()``.
    """
    return _cut_reports(inst.star(), lambda chain: dual_label(inst, chain), tol)


def check_dual_witness_conditions(
    inst: CriterionInstance,
    bundle: WitnessBundle,
    tol: float,
) -> list[DecayReport]:
    """Right-sided decay on explicit witnesses, plus the strong-convergence
    proxy distances of D_k and G_k^(l) to P_n (n = the bundle window).

    The families are ||D_k W_l^{+r_l n_k}||, ||G_k^{(l)} W_l^{-r_l n_k}|| and
    ||G_k^{(s)} W_s^{-r_s n_k} W_l^{+r_l n_k}||: each mirrors its primal
    family and pairs with the same witness.
    """
    ns = inst.n_values()
    if bundle.n_values != ns:
        raise ValueError("bundle iterates disagree with the instance")
    if bundle.n_ops != inst.n_ops:
        raise ValueError("bundle operator count disagrees with the instance")
    n_win = bundle.m
    pn = projection_matrix(n_win)
    reports = []

    vals = [strong_limit_distance(d, pn, n_win) for d in bundle.d_seq]
    reports.append(make_report(f"slim-dist(D_k - P{n_win})", ns, vals, tol))
    for l, g_seq in enumerate(bundle.g_seqs, start=1):
        vals = [strong_limit_distance(g, pn, n_win) for g in g_seq]
        reports.append(
            make_report(f"slim-dist(G{l}_k - P{n_win})", ns, vals, tol)
        )

    norms = _family_norms(inst, ns, bundle.d_seq, bundle.g_seqs, "right")
    for chain, vals in norms.items():
        witness, _ = chain_witness(chain, bundle.d_seq, bundle.g_seqs)
        label = f"norm({witness} {chain_terms(inst, chain[::-1])})"
        reports.append(make_report(label, ns, vals, tol))
    return sorted(reports, key=lambda rep: rep.quantity)


def construct_dual_approximant(
    bundle: WitnessBundle,
    psi: FunctionalRep,
    phi_list: Sequence[FunctionalRep],
    inst: CriterionInstance,
    k: int,
) -> FunctionalRep:
    """eta_k with representer A_psi P_n D_k + sum_l of the transported
    A_{phi_l} P_n G_k^(l) pulled back by the inverse transpose powers."""
    if not 1 <= k <= bundle.k_max:
        raise ValueError("k outside the bundle range")
    if len(phi_list) != inst.n_ops or bundle.n_ops != inst.n_ops:
        raise ValueError("phi_list, bundle and instance disagree on N")
    n = bundle.n_values[k - 1]
    rep = compose(psi.representer, truncate_left(bundle.d_seq[k - 1], bundle.m))
    for op, r, g_seq, phi in zip(
        inst.elementary_ops(), inst.r_list, bundle.g_seqs, phi_list
    ):
        inner = FunctionalRep(
            compose(phi.representer, truncate_left(g_seq[k - 1], bundle.m))
        )
        moved = dual_apply_power(
            op, -r * n, inner, horizon=inst.horizon, window_cap=inst.window_cap
        )
        rep = rep + moved.representer
    return FunctionalRep(rep)


def _majorant_norms(inst: CriterionInstance, bundle: WitnessBundle):
    """The norms in verify_dual_convergence's bound column, on the witnesses
    cut by P_n: ||P_n D_k - P_n|| and ||P_n G_k^(l) - P_n|| along k, and the
    right-sided witness families.  The cut witnesses are not kept."""
    pn = projection_matrix(bundle.m)
    pnd_seq = [truncate_left(d, bundle.m) for d in bundle.d_seq]
    png_seqs = [[truncate_left(g, bundle.m) for g in seq] for seq in bundle.g_seqs]
    d_gaps = [op_norm(a - pn) for a in pnd_seq]
    g_gaps = [[op_norm(a - pn) for a in seq] for seq in png_seqs]
    fam = _family_norms(inst, bundle.n_values, pnd_seq, png_seqs, "right")
    return d_gaps, g_gaps, fam


def verify_dual_convergence(
    bundle: WitnessBundle,
    psi: FunctionalRep,
    phi_list: Sequence[FunctionalRep],
    inst: CriterionInstance,
    probes: TestSet,
    tol: float,
) -> tuple[list[DecayReport], list[FunctionalRep]]:
    """Weak-* distances of eta_k to its targets along k, with termwise
    trace-norm bounds, and the eta_k representers themselves.

    The bound column majorizes each probe distance: probe norms are at most
    one, the functional norm of a representer is at most its trace norm, and
    right factors split off at operator norm.  What remains of each term is
    a dual witness family on the witnesses cut by P_n.
    """
    ns = bundle.n_values
    n_win = bundle.m
    kwargs = dict(horizon=inst.horizon, window_cap=inst.window_cap)

    # Targets enter only through their probe values, so those are taken once.
    # The representer of phi(P_n F) is A P_n.
    psi_target, *phi_targets = [
        _probe_values(
            FunctionalRep(truncate_right(phi.representer, n_win)), probes
        )
        for phi in (psi, *phi_list)
    ]
    psi_tn = trace_norm(psi.representer)
    phi_tns = [trace_norm(phi.representer) for phi in phi_list]
    d_gaps, g_gaps, fam = _majorant_norms(inst, bundle)

    etas = [
        construct_dual_approximant(bundle, psi, phi_list, inst, k)
        for k in range(1, bundle.k_max + 1)
    ]

    reports = []
    vals, bounds = [], []
    for k, eta in enumerate(etas):
        vals.append(_distance_to(eta, psi_target, probes))
        bound = psi_tn * d_gaps[k]
        for l, phi_tn in enumerate(phi_tns, start=1):
            bound += phi_tn * fam[((l, -1),)][k]
        bounds.append(bound)
    reports.append(
        make_report(
            f"wstar-dist(eta_k - M_P{n_win} psi)", ns, vals, tol, bounds=bounds
        )
    )

    for l, (op_l, rl) in enumerate(zip(inst.elementary_ops(), inst.r_list), start=1):
        vals, bounds = [], []
        for k, (n, eta) in enumerate(zip(ns, etas)):
            moved = dual_apply_power(op_l, rl * n, eta, **kwargs)
            vals.append(_distance_to(moved, phi_targets[l - 1], probes))

            bound = psi_tn * fam[((l, 1),)][k]
            bound += phi_tns[l - 1] * g_gaps[l - 1][k]
            for s, phi_tn in enumerate(phi_tns, start=1):
                if s != l:
                    bound += phi_tn * fam[((l, 1), (s, -1))][k]
            bounds.append(bound)
        reports.append(
            make_report(
                f"wstar-dist({chain_terms(inst, ((l, 1),), 'T')}"
                f" eta_k - M_P{n_win} phi{l})",
                ns,
                vals,
                tol,
                bounds=bounds,
            )
        )
    return reports, etas
