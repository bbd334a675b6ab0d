"""Correctness gate for one `opdyn run` call, independent of opdyn.

Nothing here imports opdyn.  Every call is checked for:

* the report's shape, and an exit code that means what the README says
  (0 when every family decays below tol, otherwise 1);
* verdicts consistent with the value column (the first k from which every
  value stays below tol; otherwise the sign of a least-squares log-slope);
* summary.txt agreeing with the report, and the expected artifact names;
* on the default seed, the stored reference from the commit that defined
  the benchmark: exit code, verdicts and artifact names exactly, values and
  bounds within ``REL_TOL`` (vectorised rewrites may move the last bits);
* one oracle per workload that rebuilds numbers straight from the generated
  inputs:
  - families: plain-Python ``fsum`` of log weights at a few k;
  - construct: ``np.linalg.norm(phi_k - P_m F, 2)`` against
    ``dist(phi_k - P8 F)``;
  - dual: the numpy trace pairing of ``eta_k`` on the default probes against
    ``wstar-dist(eta_k - M_P12 psi)``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HEADER = "quantity,k,n_k,value,bound,verdict"

#: Relative tolerance for values against the stored reference.  It admits
#: ulp-level drift from a changed summation order and rejects a 1e-6 change.
REL_TOL = 1e-9

#: Oracle tolerances.  ``construct`` compares LAPACK's SVD with opdyn's power
#: iteration, which stops at a 1e-10 residual.
ORACLE_TOL = {"families": 1e-9, "construct": 1e-8, "dual": 1e-9}

#: Absolute floor for the dual oracle: the weak-* distances reach exactly 0,
#: where a different summation order leaves a few ulps of 1.0.
DUAL_ABS_TOL = 1e-13

DEFAULT_SEED = 0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def read_report(path: str):
    """Rows (quantity, k, n_k, value, bound-or-None, verdict) of report.csv."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("report.csv: bad header")
    rows = []
    for no, line in enumerate(lines[1:], start=2):
        # labels contain no commas; split from the right to be safe
        parts = line.rsplit(",", 5)
        if len(parts) != 6:
            raise ValueError(f"report.csv line {no}: expected 6 fields")
        q, k, n, v, b, verdict = parts
        rows.append((q, int(k), int(n), float(v), float(b) if b else None, verdict))
    return rows


def families_of(rows) -> dict[str, list]:
    out: dict[str, list] = {}
    for row in rows:
        out.setdefault(row[0], []).append(row)
    return out


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


# -- checks that hold on every seed ---------------------------------------


def _fit_slope(ns, vals):
    pts = [(float(n), math.log(v)) for n, v in zip(ns, vals) if v > 0.0]
    if len(pts) < 2:
        return None
    xbar = math.fsum(x for x, _ in pts) / len(pts)
    ybar = math.fsum(y for _, y in pts) / len(pts)
    sxx = math.fsum((x - xbar) ** 2 for x, _ in pts)
    if sxx == 0.0:
        return None
    return math.fsum((x - xbar) * (y - ybar) for x, y in pts) / sxx


def expected_verdict(ns, vals, tol: float) -> str:
    last_high = 0
    for k, v in enumerate(vals, start=1):
        if v >= tol:
            last_high = k
    if last_high < len(vals):
        return f"decays-below({tol!r} at k={last_high + 1})"
    slope = _fit_slope(ns, vals)
    return "inconclusive" if slope is not None and slope < 0.0 else "fails"


def check_consistency(rows, code, summary: str, tol: float) -> list[str]:
    problems = []
    fams = families_of(rows)
    verdicts = {}
    for q, fam in fams.items():
        ks = [r[1] for r in fam]
        if ks != list(range(1, len(fam) + 1)):
            problems.append(f"{q}: k column is not 1..{len(fam)}")
        if len({r[5] for r in fam}) != 1:
            problems.append(f"{q}: verdict changes along k")
        want = expected_verdict([r[2] for r in fam], [r[3] for r in fam], tol)
        if fam[0][5] != want:
            problems.append(f"{q}: verdict {fam[0][5]} but values give {want}")
        verdicts[q] = fam[0][5]
    all_decay = all(v.startswith("decays-below") for v in verdicts.values())
    want_code = 0 if all_decay else 1
    if code != want_code:
        problems.append(f"exit code {code}, verdicts imply {want_code}")
    lines = summary.splitlines()
    if not lines or lines[-1] != f"all-decays: {'yes' if all_decay else 'no'}":
        problems.append("summary.txt: all-decays line disagrees with report")
    seen = {}
    for line in lines[:-1]:
        q, _, rest = line.rpartition(": ")
        seen[q] = rest.split(";", 1)[0]
    if seen != verdicts:
        problems.append("summary.txt: verdicts disagree with report")
    return problems


def check_reference(rows, code, artifacts, reference) -> list[str]:
    problems = []
    if code != reference["exit_code"]:
        problems.append(f"exit code {code}, reference {reference['exit_code']}")
    if artifacts != reference["artifacts"]:
        problems.append("artifact names differ from reference")
    ref_rows = reference["rows"]
    if len(rows) != len(ref_rows):
        return problems + [f"{len(rows)} report rows, reference {len(ref_rows)}"]
    bad = 0
    for got, want in zip(rows, ref_rows):
        same_keys = got[:3] == want[:3] and got[5] == want[5]
        same_bound = (got[4] is None) == (want[4] is None) and (
            got[4] is None or close(got[4], want[4], REL_TOL)
        )
        if not (same_keys and same_bound and close(got[3], want[3], REL_TOL)):
            bad += 1
            if bad <= 3:
                problems.append(f"reference mismatch: {got} vs {want}")
    if bad > 3:
        problems.append(f"... {bad} reference mismatches in all")
    return problems


# -- oracles --------------------------------------------------------------


def _log_weight_fn(spec):
    if spec[0] == "piecewise":
        lneg, lpos = math.log(spec[1]), math.log(spec[2])
        return lambda i: lneg if i < 0 else lpos
    table = {j: math.log(w) for j, w in spec[1].items()}
    return table.__getitem__  # a KeyError means the run left the table


def _walk(logw, factors, j):
    """Apply shift powers (rightmost first) to e_j: (index, log coeff)."""
    idx, terms = j, []
    for l, p in reversed(factors):
        if p >= 0:
            terms.extend(logw[l](i) for i in range(idx, idx + p))
        else:
            terms.extend(-logw[l](i) for i in range(idx + p, idx))
        idx += p
    return idx, math.fsum(terms)


#: k values at which the families oracle rebuilds every family.
FAMILIES_ORACLE_K = (1, 2, 97, 200)


def families_expected(params) -> dict[tuple[str, int], float]:
    """Every family of the corollary run at FAMILIES_ORACLE_K."""
    logw = [_log_weight_fn(w) for w in params["weights"]]
    r_list, m = params["r_list"], params["m"]
    fams = []
    for l, r in enumerate(r_list):
        fams.append((f"norm(W{l + 1}^(+{r}n) P{m})", ((l, r),)))
        fams.append((f"norm(W{l + 1}^(-{r}n) P{m})", ((l, -r),)))
    for l, rl in enumerate(r_list):
        for s, rs in enumerate(r_list):
            if s != l:
                label = f"norm(W{l + 1}^(+{rl}n) W{s + 1}^(-{rs}n) P{m})"
                fams.append((label, ((l, rl), (s, -rs))))
    out = {}
    for label, factors in fams:
        for k in FAMILIES_ORACLE_K:
            scaled = tuple((l, p * k) for l, p in factors)
            best = max(_walk(logw, scaled, j)[1] for j in range(-m, m + 1))
            try:
                out[(label, k)] = math.exp(best)
            except OverflowError:
                out[(label, k)] = math.inf
    return out


def read_finmat_entries(path: str) -> dict[tuple[int, int], float]:
    """Entries of a `finmat v1` file, parsed without opdyn."""
    entries = {}
    with open(path, "r", encoding="ascii") as fh:
        if fh.readline().rstrip("\n") != "finmat v1":
            raise ValueError(f"{path}: bad header")
        for line in fh:
            i, j, v = line.split()
            entries[(int(i), int(j))] = float(v)
    return entries


def dense_difference(a: dict, b: dict) -> np.ndarray:
    """a - b as a dense block over the rows and columns either one uses."""
    rows = sorted({i for i, _ in a} | {i for i, _ in b})
    cols = sorted({j for _, j in a} | {j for _, j in b})
    ri = {r: n for n, r in enumerate(rows)}
    ci = {c: n for n, c in enumerate(cols)}
    out = np.zeros((len(rows), len(cols)))
    for (i, j), v in a.items():
        out[ri[i], ci[j]] += v
    for (i, j), v in b.items():
        out[ri[i], ci[j]] -= v
    return out


def oracle_construct(outdir, rows, params, tol) -> list[str]:
    m = params["m"]
    values = {r[1]: r[3] for r in rows if r[0] == f"dist(phi_k - P{m} F)"}
    problems = []
    for k in range(1, params["k_max"] + 1):
        phi = read_finmat_entries(os.path.join(outdir, f"approximant_k{k:04d}.finmat"))
        # the targets live inside the window, so P_m F = F
        want = float(np.linalg.norm(dense_difference(phi, params["f"]), 2))
        if k not in values or not close(values[k], want, tol):
            problems.append(f"construct oracle k={k}: {values.get(k)} vs {want}")
    return problems


def oracle_dual(outdir, rows, params, tol) -> list[str]:
    m, k_max = params["m"], params["k_max"]
    size = 2 * m + 1
    psi = np.eye(size)
    probes = [np.diag([1.0 if abs(j) <= r else 0.0 for j in range(-m, m + 1)])
              for r in range(m + 1)]
    label = f"wstar-dist(eta_k - M_P{m} psi)"
    values = {r[1]: r[3] for r in rows if r[0] == label}
    problems = []
    for k in range(1, k_max + 1):
        eta = np.zeros((size, size))
        for (i, j), v in read_finmat_entries(
            os.path.join(outdir, f"eta_k{k:04d}.finmat")
        ).items():
            if abs(i) <= m and abs(j) <= m:
                eta[i + m, j + m] = v
        # trace(A f) against f = P_r and every matrix unit e_i e_j^T;
        # the unit (i, j) picks A[j, i], so the max runs over |A| entries.
        diff = eta - psi
        dists = [abs(np.trace(diff @ p)) for p in probes]
        dists.append(float(np.max(np.abs(diff))))
        want = float(max(dists))
        if k not in values or not close(values[k], want, tol, DUAL_ABS_TOL):
            problems.append(f"dual oracle k={k}: {values.get(k)} vs {want}")
    return problems


# -- one call -------------------------------------------------------------


def expected_artifacts(workload) -> list[str]:
    k_max = workload.params["k_max"]
    if workload.name == "construct":
        return [f"approximant_k{k:04d}.finmat" for k in range(1, k_max + 1)]
    if workload.name == "dual":
        return [f"eta_k{k:04d}.finmat" for k in range(1, k_max + 1)]
    return []


def load_reference(name: str):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["rows"] = read_report(os.path.join(REFERENCE_DIR, f"{name}.csv"))
    return ref


class Gate:
    """Checks calls of one generated workload.  The oracle values that do
    not depend on the call are computed once, here."""

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.reference = reference
        self.tol = workload.params["tol"]
        self.expected = (
            families_expected(workload.params) if workload.name == "families" else None
        )

    def check(self, outdir: str, code) -> list[str]:
        """Problems found in one call's output directory; empty when it
        passes."""
        try:
            rows = read_report(os.path.join(outdir, "report.csv"))
            with open(os.path.join(outdir, "summary.txt"), "r", encoding="ascii") as fh:
                summary = fh.read()
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        if not rows:
            return ["report.csv has no rows"]
        artifacts = sorted(
            f for f in os.listdir(outdir) if f not in ("report.csv", "summary.txt")
        )
        problems = check_consistency(rows, code, summary, self.tol)
        if artifacts != expected_artifacts(self.workload):
            problems.append("unexpected artifact names")
        if self.reference is not None:
            problems += check_reference(rows, code, artifacts, self.reference)
        problems += self._oracle(outdir, rows)
        return problems

    def _oracle(self, outdir, rows) -> list[str]:
        name = self.workload.name
        tol = ORACLE_TOL[name]
        try:
            if name == "construct":
                return oracle_construct(outdir, rows, self.workload.params, tol)
            if name == "dual":
                return oracle_dual(outdir, rows, self.workload.params, tol)
        except (OSError, ValueError, IndexError) as exc:
            return [f"{name} oracle: unreadable artifact: {exc}"]
        got = {(r[0], r[1]): r[3] for r in rows}
        return [
            f"families oracle {key}: {got.get(key)} vs {want}"
            for key, want in self.expected.items()
            if key not in got or not close(got[key], want, tol)
        ]
