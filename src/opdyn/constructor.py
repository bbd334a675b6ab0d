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

from dataclasses import dataclass
from typing import Sequence

from .criteria import CriterionInstance, DecayReport, make_report
from .elementary import apply_power
from .errors import FormatError
from .finmat import (
    FiniteMatrix,
    compose,
    load_finmat,
    op_norm,
    projection_matrix,
    read_text,
    save_finmat,
    truncate_left,
    truncate_right,
)

BUNDLE_HEADER = "opdyn-bundle v1"
_MANIFEST_NAME = "manifest.txt"


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
    ops = inst.elementary_ops()
    d_seq = tuple(truncate_right(f, inst.m) for f in f_seq)
    g_seqs = []
    for op, r in zip(ops, inst.r_list):
        g_seq = tuple(
            truncate_right(
                apply_power(
                    op, r * n, f,
                    horizon=inst.horizon, window_cap=inst.window_cap,
                ),
                inst.m,
            )
            for n, f in zip(ns, f_seq)
        )
        g_seqs.append(g_seq)
    return WitnessBundle(m=inst.m, n_values=ns, d_seq=d_seq, g_seqs=tuple(g_seqs))


def construct_approximant(
    bundle: WitnessBundle,
    targets: TargetTuple,
    inst: CriterionInstance,
    k: int,
) -> tuple[FiniteMatrix, FiniteMatrix, list[tuple[FiniteMatrix, FiniteMatrix]]]:
    """phi_k = D_k F + sum_l S_l^{r_l n_k}(G_k^(l) E_l), k one-based, and the
    terms it sums: D_k F, and for each l the pair
    (G_k^(l) E_l, S_l^{r_l n_k}(G_k^(l) E_l))."""
    if not 1 <= k <= bundle.k_max:
        raise ValueError("k outside the bundle range")
    if bundle.n_ops != inst.n_ops or len(targets.e_list) != inst.n_ops:
        raise ValueError("bundle, targets and instance disagree on N")
    n = bundle.n_values[k - 1]
    df = compose(bundle.d_seq[k - 1], targets.f)
    phi, pairs = df, []
    for op, r, g_seq, e in zip(
        inst.elementary_ops(), inst.r_list, bundle.g_seqs, targets.e_list
    ):
        ge = compose(g_seq[k - 1], e)
        correction = apply_power(
            op, -r * n, ge, horizon=inst.horizon, window_cap=inst.window_cap
        )
        pairs.append((ge, correction))
        phi = phi + correction
    return phi, df, pairs


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
            <= ||T_l^{..}(D_k F)|| + ||G_k^(l) E_l - P_m E_l||
               + sum_{s != l} ||T_l^{..}(S_s^{..}(G_k^(s) E_s))||
    """
    ns = bundle.n_values
    ops = inst.elementary_ops()
    m = bundle.m
    pm = projection_matrix(m)
    pmf = truncate_left(targets.f, m)
    pme = [truncate_left(e, m) for e in targets.e_list]

    kwargs = dict(horizon=inst.horizon, window_cap=inst.window_cap)
    phis = []
    columns: dict[str, list[float]] = {}

    def col(label: str) -> list[float]:
        return columns.setdefault(label, [])

    for k, n in enumerate(ns, start=1):
        phi, df, pairs = construct_approximant(bundle, targets, inst, k)
        phis.append(phi)
        col(f"dist(phi_k - P{m} F)").append(op_norm(phi - pmf))
        col(f"norm((D_k - P{m}) F)").append(
            op_norm(compose(bundle.d_seq[k - 1] - pm, targets.f))
        )
        for l, (r, (ge, corr)) in enumerate(zip(inst.r_list, pairs), start=1):
            col(f"norm(S{l}^({r}n) G{l}_k E{l})").append(op_norm(corr))
            col(f"norm(G{l}_k E{l} - P{m} E{l})").append(
                op_norm(ge - pme[l - 1])
            )
        for l, (op, r) in enumerate(zip(ops, inst.r_list), start=1):
            moved = apply_power(op, r * n, phi, **kwargs)
            col(f"dist(T{l}^(+{r}n) phi_k - P{m} E{l})").append(
                op_norm(moved - pme[l - 1])
            )
            col(f"norm(T{l}^(+{r}n) D_k F)").append(
                op_norm(apply_power(op, r * n, df, **kwargs))
            )
            for s, rs in enumerate(inst.r_list, start=1):
                if s == l:
                    continue
                col(
                    f"norm(T{l}^(+{r}n) S{s}^({rs}n) G{s}_k E{s})"
                ).append(
                    op_norm(apply_power(op, r * n, pairs[s - 1][1], **kwargs))
                )

    reports = [
        make_report(label, ns, vals, tol) for label, vals in columns.items()
    ]
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
