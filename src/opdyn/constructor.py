"""Explicit approximant construction and witness extraction.

Two directions of the same equivalence are made computational here.  From a
sequence of matrices F_k that approximately carry P_m to itself under the
operator tuple, ``extract_witnesses`` produces the pair families

    D_k = F_k P_m,      G_k^(l) = T_l^{r_l n_k}(F_k) P_m.

In the other direction, ``construct_approximant`` assembles

    phi_k = D_k F + sum_l S_l^{r_l n_k}(G_k^(l) E_l)

which simultaneously approximates P_m F under the identity and P_m E_l under
T_l^{r_l n_k}.  ``verify_approximant_convergence`` measures both distance
families along k together with every term of the triangle decomposition that
bounds them, so the displayed inequalities can be checked numerically.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import (
    CriterionInstance,
    DecayReport,
    chain_apply,
    equal_runs,
    family_chain,
    make_report,
    row_families,
    witnesses,
)
from .errors import FormatError, OpdynError
from .finmat import (
    FiniteMatrix,
    MatrixStack,
    compose,
    load_finmat,
    projection_matrix,
    read_text,
    save_finmat,
    truncate_left,
    truncate_right,
)

BUNDLE_HEADER = "opdyn-bundle v1"
_MANIFEST_NAME = "manifest.txt"

#: Products of the phi_k terms (which bound their entries) in one block of
#: the approximant check; its stacks take some 200 bytes a product.
_BLOCK_PRODUCTS = 1 << 12


@dataclass(frozen=True)
class WitnessBundle:
    """Witness sequences D_k and G_k^(l), indexed k = 1..k_max, l = 1..N."""

    m: int
    n_values: tuple[int, ...]
    d_seq: tuple[FiniteMatrix, ...]
    g_seqs: tuple[tuple[FiniteMatrix, ...], ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        k = len(self.n_values)
        if k == 0:
            raise ValueError("bundle needs at least one iterate")
        if any(y <= x for x, y in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values not strictly increasing")
        if len(self.d_seq) != k:
            raise ValueError("d_seq length must match n_values")
        if not self.g_seqs or any(len(g) != k for g in self.g_seqs):
            raise ValueError("each g_seq must match n_values in length")

    @property
    def k_max(self) -> int:
        return len(self.n_values)

    @property
    def n_ops(self) -> int:
        return len(self.g_seqs)


@dataclass(frozen=True)
class TargetTuple:
    """Targets F (for the identity direction) and E_1..E_N (one per
    operator), all supported inside the window [-m, m]."""

    f: FiniteMatrix
    e_list: tuple[FiniteMatrix, ...]
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if not self.e_list:
            raise ValueError("need at least one E target")
        for mat in (self.f, *self.e_list):
            if mat.support_radius() > self.m:
                raise ValueError("target support exceeds the window")


def default_bundle(inst: CriterionInstance) -> WitnessBundle:
    """The canonical choice D_k = G_k^(l) = P_m for every k."""
    pm = projection_matrix(inst.m)
    ns = inst.n_values()
    return WitnessBundle(
        m=inst.m,
        n_values=ns,
        d_seq=(pm,) * len(ns),
        g_seqs=tuple((pm,) * len(ns) for _ in range(inst.n_ops)),
    )


def extract_witnesses(
    f_seq: Sequence[FiniteMatrix], inst: CriterionInstance
) -> WitnessBundle:
    """Right-truncated witnesses from an approximant sequence F_k.

    The caller supplies F_k with ||F_k - P_m|| and ||T_l^{r_l n_k}(F_k) - P_m||
    small (a 4^{-k} schedule suffices); the extracted bundle then passes
    check_witness_conditions at matching tolerances.
    """
    ns = inst.n_values()
    if len(f_seq) != len(ns):
        raise ValueError("f_seq must have k_max members")
    d_seq = tuple(truncate_right(f, inst.m) for f in f_seq)
    g_seqs = tuple(
        tuple(
            truncate_right(chain_apply(inst, family_chain(l, 0), n, f), inst.m)
            for n, f in zip(ns, f_seq)
        )
        for l in range(1, inst.n_ops + 1)
    )
    return WitnessBundle(m=inst.m, n_values=ns, d_seq=d_seq, g_seqs=g_seqs)


def _approximants(bundle: WitnessBundle, inst: CriterionInstance, ks, product, power=None):
    """phi_k for every k in ks as one stack (copy i for ks[i]), the stack of
    each term it sums, and per term the first witness of each run of equal
    witnesses, their products and the run of each copy.  Term u is
    ``product(u, witness)`` of its witness (D_k, then each G_k^(l)), once
    per run, pulled back by family_chain(0, u) at n_k in one call, so each
    copy is the walk of its k alone, float for float."""
    if not all(1 <= k <= bundle.k_max for k in ks):
        raise ValueError("k outside the bundle range")
    ns = tuple(bundle.n_values[k - 1] for k in ks)
    phi, terms, runs = None, [], []
    for u, (_, seq) in enumerate(witnesses(bundle.d_seq, bundle.g_seqs)):
        starts = equal_runs([seq[k - 1] for k in ks])
        firsts = [seq[ks[i] - 1] for i in starts[:-1]]
        made = MatrixStack.of(product(u, a) for a in firsts)
        run_of = np.repeat(np.arange(len(firsts)), np.diff(starts))
        terms.append(chain_apply(inst, family_chain(0, u), ns, made.take(run_of), power=power))
        runs.append((firsts, made, run_of))
        phi = terms[0] if phi is None else phi + terms[-1]
    return phi, terms, runs


def _target_product(bundle: WitnessBundle, targets: TargetTuple, inst: CriterionInstance):
    """The product of each phi_k term: D_k F, G_k^(l) E_l."""
    if bundle.n_ops != inst.n_ops or len(targets.e_list) != inst.n_ops:
        raise ValueError("bundle, targets and instance disagree on N")
    xs = (targets.f, *targets.e_list)
    return lambda u, a: compose(a, xs[u])


def construct_approximant(
    bundle: WitnessBundle,
    targets: TargetTuple,
    inst: CriterionInstance,
    k: int,
) -> tuple[FiniteMatrix, FiniteMatrix, list[tuple[FiniteMatrix, FiniteMatrix]]]:
    """phi_k = D_k F + sum_l S_l^{r_l n_k}(G_k^(l) E_l), k one-based, and the
    terms it sums: D_k F, and for each l the pair
    (G_k^(l) E_l, S_l^{r_l n_k}(G_k^(l) E_l)); the one-copy case of the
    stacked build."""
    phi, terms, runs = _approximants(bundle, inst, [k], _target_product(bundle, targets, inst))
    (phi,), (df, *corrections) = phi.split(), [term.split()[0] for term in terms]
    return phi, df, [(made.split()[0], c) for (_, made, _), c in zip(runs[1:], corrections)]


def verify_approximant_convergence(
    bundle: WitnessBundle,
    targets: TargetTuple,
    inst: CriterionInstance,
    tol: float,
) -> tuple[list[DecayReport], list[FiniteMatrix]]:
    """Distances of phi_k to its two target families, plus every term of the
    bounding decomposition, and the approximants phi_1..phi_kmax themselves:

        ||phi_k - P_m F||        <= ||(D_k - P_m) F|| + sum_l ||S_l^{..}(G E_l)||
        ||T_l^{..}(phi_k) - P_m E_l||
            <= ||G_k^(l) E_l - P_m E_l|| + ||T_l^{..}(D_k F)||
               + sum_{s != l} ||T_l^{..}(S_s^{..}(G_k^(s) E_s))||

    Row t is the identity (t = 0) or T_t^{+r_t n}; term u is D_k F (u = 0)
    or S_u^{r_u n}(G_k^(u) E_u).  Each row is its own gap plus the row on
    every other term, as ``criteria.row_families`` lists them.

    The phi_k are built, moved and normed as stacks, with no loop over k, a
    block of k at a time (one at least, else as many as keep the products
    their terms sum within ``_BLOCK_PRODUCTS``).  A block that raises is
    checked again one k at a time: the error is the walk over k's first.
    """
    ns, m = bundle.n_values, bundle.m
    rs = list(enumerate(inst.r_list, start=1))
    rows = [""] + [f"T{l}^(+{r}n) " for l, r in rs]
    names = ["F"] + [f"E{l}" for l, _ in rs]
    gap_labels = [f"(D_k - P{m}) F"] + [f"G{l}_k E{l} - P{m} E{l}" for l, _ in rs]
    term_labels = ["D_k F"] + [f"S{l}^({r}n) G{l}_k E{l}" for l, r in rs]
    # - P_m X is added as the negation, which is how FiniteMatrix.__sub__ sums
    xs = (targets.f, *targets.e_list)
    minus_pms = [MatrixStack.of([-truncate_left(x, m)]) for x in xs]
    pm, product = projection_matrix(m), _target_product(bundle, targets, inst)
    columns: dict[str, list[float]] = defaultdict(list)

    def check(ks) -> list[FiniteMatrix]:
        # every column at each k in ks, and phi_k
        phi, terms, runs = _approximants(bundle, inst, ks, product)
        at = tuple(ns[k - 1] for k in ks)
        for t, (row, minus) in enumerate(zip(rows, minus_pms)):
            act, (firsts, made, run_of) = family_chain(t, 0), runs[t]
            dist = chain_apply(inst, act, at, phi) + minus.take([0] * len(ks))
            columns[f"dist({row}phi_k - P{m} {names[t]})"] += dist.op_norms()
            if t:
                gaps = made + minus.take([0] * made.count)
            else:
                gaps = MatrixStack.of(compose(a - pm, targets.f) for a in firsts)
            columns[f"norm({gap_labels[t]})"] += np.take(gaps.op_norms(), run_of).tolist()
            for u, _ in row_families(t, inst.n_ops):
                norms = chain_apply(inst, act, at, terms[u]).op_norms()
                columns[f"norm({row}{term_labels[u]})"] += norms
        return phi.split()

    # each block as many k as keep the products of their terms in the bound
    most = max(
        sum(np.sum(x._rows.searchsorted(a._cols, "right") - x._rows.searchsorted(a._cols))
            for a, x in zip(witness, xs))
        for witness in zip(bundle.d_seq, *bundle.g_seqs)
    )
    step, phis = max(1, _BLOCK_PRODUCTS // max(most, 1)), []
    for lo in range(0, len(ns), step):
        ks = range(lo + 1, min(lo + step, len(ns)) + 1)
        try:
            phis += check(ks)
        except OpdynError:
            for k in ks:
                check([k])
            raise
    reports = [make_report(label, ns, vals, tol) for label, vals in columns.items()]
    return sorted(reports, key=lambda rep: rep.quantity), phis


def save_bundle(bundle: WitnessBundle, r_list: Sequence[int], dirpath) -> None:
    """Write the bundle to a directory: manifest plus one finmat file per
    member, d_0001.finmat and g{l}_0001.finmat naming."""
    if len(r_list) != bundle.n_ops:
        raise ValueError("r_list must pair with the bundle's g sequences")
    os.makedirs(dirpath, exist_ok=True)
    lines = [
        BUNDLE_HEADER,
        f"m {bundle.m}",
        "r_list " + " ".join(str(r) for r in r_list),
        "n_values " + " ".join(str(n) for n in bundle.n_values),
    ]
    with open(
        os.path.join(dirpath, _MANIFEST_NAME), "w", encoding="ascii", newline=""
    ) as fh:
        fh.write("\n".join(lines) + "\n")
    for k, d in enumerate(bundle.d_seq, start=1):
        save_finmat(d, os.path.join(dirpath, f"d_{k:04d}.finmat"))
    for l, g_seq in enumerate(bundle.g_seqs, start=1):
        for k, g in enumerate(g_seq, start=1):
            save_finmat(g, os.path.join(dirpath, f"g{l}_{k:04d}.finmat"))


def load_bundle(dirpath) -> tuple[WitnessBundle, tuple[int, ...]]:
    """Read a bundle directory back; returns (bundle, r_list)."""
    manifest = os.path.join(dirpath, _MANIFEST_NAME)
    raw = read_text(manifest, "bundle manifest").splitlines()
    if not raw or raw[0] != BUNDLE_HEADER:
        raise FormatError(f"bundle manifest must start with {BUNDLE_HEADER!r}")
    fields: dict[str, str] = {}
    for line in raw[1:]:
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        if key in fields:
            raise FormatError(f"duplicate manifest key {key!r}")
        fields[key] = rest.strip()
    missing = {"m", "r_list", "n_values"} - set(fields)
    if missing:
        raise FormatError(f"manifest missing keys: {sorted(missing)}")
    extra = set(fields) - {"m", "r_list", "n_values"}
    if extra:
        raise FormatError(f"manifest has unknown keys: {sorted(extra)}")
    try:
        m = int(fields["m"])
        r_list = tuple(int(t) for t in fields["r_list"].split())
        n_values = tuple(int(t) for t in fields["n_values"].split())
    except ValueError as exc:
        raise FormatError(f"bad manifest integer: {exc}") from exc
    ks = range(1, len(n_values) + 1)
    names = [[f"d_{k:04d}.finmat" for k in ks]] + [
        [f"g{l}_{k:04d}.finmat" for k in ks] for l in range(1, len(r_list) + 1)
    ]
    d_seq, *g_seqs = (
        tuple(
            load_finmat(os.path.join(dirpath, name), f"bundle file {name!r}")
            for name in row
        )
        for row in names
    )
    try:
        bundle = WitnessBundle(
            m=m, n_values=n_values, d_seq=d_seq, g_seqs=tuple(g_seqs)
        )
    except ValueError as exc:
        raise FormatError(f"inconsistent bundle: {exc}") from exc
    return bundle, r_list
