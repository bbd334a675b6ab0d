"""Scenario-driven command line front end.

Subcommands:

* ``run <scenario> [--out DIR] [--tol X] [--kmax K] [--horizon H]`` executes
  a scenario file (or a built-in scenario by name) and writes ``report.csv``,
  ``summary.txt`` and any constructed matrices into the output directory.
* ``validate <scenario>`` prints schema and consistency diagnostics without
  running anything.
* ``list-builtin`` prints the names of the shipped scenarios.

Exit codes: 0 success (all verdicts decay, or the mode has no verdicts),
1 some verdict is not decays-below, 2 schema or format violation,
3 transport horizon or window cap exceeded, 4 the LAPACK SVD behind a dense
norm did not converge, 5 a matrix entry overflowed to inf or nan, 6 an
internal error (the traceback is printed).  Environment variables are never
consulted.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace

from .constructor import (
    TargetTuple,
    default_bundle,
    load_bundle,
    verify_approximant_convergence,
)
from .criteria import (
    CriterionInstance,
    all_decay,
    check_pointwise_decay,
    check_sufficient_decay,
    check_witness_conditions,
    render_summary,
    sufficient_label,
    write_reports_csv,
)
from .duality import (
    FunctionalRep,
    check_dual_sufficient,
    check_dual_witness_conditions,
    default_probes,
    verify_dual_convergence,
)
from .elementary import orbit, orbit_distances, write_orbit_csv
from .errors import (
    ConvergenceError,
    FormatError,
    HorizonExceeded,
    NonFiniteEntry,
    ScenarioError,
    WindowExceeded,
)
from .finmat import load_finmat, op_norm, projection_matrix, save_finmat, unit
from .scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    analyze_scenario,
    list_builtin,
    parse_scenario,
    with_overrides,
)

#: Window sweep used by the built-in example modes.
EXAMPLE_SWEEP = range(5)


def _resolve_text(ref: str) -> tuple[str, str]:
    """Scenario text and base directory for a file path or builtin name."""
    if os.path.isfile(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            return fh.read(), os.path.dirname(os.path.abspath(ref))
    if ref in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[ref], "."
    raise ScenarioError([f"no such scenario file or builtin: {ref}"])


def _load_matrix(path: str):
    try:
        return load_finmat(path)
    except OSError as exc:
        raise ScenarioError([f"cannot read matrix file: {exc}"]) from exc


def _load_witness_bundle(scenario: Scenario, inst: CriterionInstance):
    bundle, r_list = load_bundle(scenario.witnesses)
    problems = []
    if r_list != inst.r_list:
        problems.append("witness bundle exponents disagree with r_list")
    if bundle.m != inst.m:
        problems.append("witness bundle window disagrees with m")
    if bundle.n_values != inst.n_values():
        problems.append("witness bundle iterates disagree with n_seq/k_max")
    if bundle.n_ops != inst.n_ops:
        problems.append("witness bundle operator count disagrees with weights")
    if problems:
        raise ScenarioError(problems)
    return bundle


def _mode_corollary(scenario: Scenario):
    inst = scenario.to_instance()
    return check_sufficient_decay(inst, scenario.tol), {}


def _mode_theorem(scenario: Scenario):
    inst = scenario.to_instance()
    bundle = _load_witness_bundle(scenario, inst)
    reports = check_witness_conditions(
        inst, bundle.d_seq, bundle.g_seqs, scenario.tol
    )
    return reports, {}


def _mode_pointwise(scenario: Scenario):
    inst = scenario.to_instance()
    seeds = [_load_matrix(path) for path in scenario.seeds]
    return check_pointwise_decay(inst, seeds, scenario.tol), {}


def _mode_construct_phi(scenario: Scenario):
    inst = scenario.to_instance()
    mats = [_load_matrix(path) for path in scenario.targets]
    try:
        targets = TargetTuple(f=mats[0], e_list=tuple(mats[1:]), m=inst.m)
    except ValueError as exc:
        raise ScenarioError([f"targets: {exc}"]) from exc
    if scenario.witnesses is not None:
        bundle = _load_witness_bundle(scenario, inst)
    else:
        bundle = default_bundle(inst)
    reports, phis = verify_approximant_convergence(
        bundle, targets, inst, scenario.tol
    )
    artifacts = {
        f"approximant_k{k:04d}.finmat": phi
        for k, phi in enumerate(phis, start=1)
    }
    return reports, artifacts


def _dual_instance(scenario: Scenario, m: int | None = None):
    """The instance the dual families act on: adjoint shifts when the
    scenario acts by adjoint weights."""
    inst = scenario.to_instance(m=m)
    return inst.star() if scenario.adjoint_weights else inst


def _dual_etas(scenario: Scenario, inst: CriterionInstance, bundle):
    """Weak-* convergence of the dual approximants eta_k for psi = P_m and
    phi_l = E_00, and the eta_k representers as artifacts."""
    reports, etas = verify_dual_convergence(
        bundle,
        FunctionalRep(projection_matrix(inst.m)),
        [FunctionalRep(unit(0, 0)) for _ in range(inst.n_ops)],
        inst,
        default_probes(inst.m),
        scenario.tol,
    )
    artifacts = {
        f"eta_k{k:04d}.finmat": eta.representer
        for k, eta in enumerate(etas, start=1)
    }
    return reports, artifacts


def _mode_dual(scenario: Scenario):
    inst = _dual_instance(scenario)
    reports = check_dual_sufficient(inst, scenario.tol)
    if scenario.witnesses is not None:
        bundle = _load_witness_bundle(scenario, inst)
        reports.extend(check_dual_witness_conditions(inst, bundle, scenario.tol))
    else:
        bundle = default_bundle(inst)
    eta_reports, artifacts = _dual_etas(scenario, inst, bundle)
    return sorted(reports + eta_reports, key=lambda rep: rep.quantity), artifacts


def _mode_example24(scenario: Scenario):
    """Sufficient-decay families swept over windows 0..4, the two cross
    columns carrying their closed-form geometric bounds."""
    reports = []
    for mm in EXAMPLE_SWEEP:
        inst = scenario.to_instance(m=mm)
        r1 = inst.r_list[0]
        ns = inst.n_values()
        bounds = {
            sufficient_label(inst, ((1, 1), (2, -1))): [
                9.0**mm * (2 / 9) ** (r1 * n) for n in ns
            ],
            sufficient_label(inst, ((2, 1), (1, -1))): [
                9.0**mm * 0.5 ** (r1 * n) for n in ns
            ],
        }
        for rep in check_sufficient_decay(inst, scenario.tol):
            if rep.quantity in bounds:
                rep = replace(
                    rep, bounds=tuple(enumerate(bounds[rep.quantity], start=1))
                )
            reports.append(rep)
    return sorted(reports, key=lambda rep: rep.quantity), {}


def _mode_example28(scenario: Scenario):
    """Adjoint-shift right-sided families swept over windows 0..4, plus the
    weak-* approximant convergence run at the scenario window."""
    reports = []
    for mm in EXAMPLE_SWEEP:
        adj = _dual_instance(scenario, m=mm)
        reports.extend(check_dual_sufficient(adj, scenario.tol))

    inst = _dual_instance(scenario)
    eta_reports, artifacts = _dual_etas(scenario, inst, default_bundle(inst))
    return sorted(reports + eta_reports, key=lambda rep: rep.quantity), artifacts


def _open_out(outdir: str, name: str):
    return open(os.path.join(outdir, name), "w", encoding="ascii", newline="")


def _run_orbit(scenario: Scenario, outdir: str) -> int:
    inst = scenario.to_instance()
    ops = list(zip(inst.elementary_ops(), inst.r_list))
    n_max = inst.n_values()[-1]
    seeds = [_load_matrix(path) for path in scenario.seeds]
    targets = None
    if scenario.targets:
        if len(scenario.targets) != inst.n_ops:
            raise ScenarioError(["targets: orbit mode needs one per operator"])
        targets = [_load_matrix(path) for path in scenario.targets]
    kwargs = dict(horizon=inst.horizon, window_cap=inst.window_cap)
    rows = []
    for seed in seeds:
        if targets is not None:
            rows.extend(orbit_distances(ops, seed, targets, n_max, **kwargs))
        else:
            rows.extend(
                (n, l, op_norm(mat))
                for n, l, mat in orbit(ops, seed, n_max, **kwargs)
            )
    with _open_out(outdir, "orbit.csv") as fh:
        write_orbit_csv(rows, fh)
    with _open_out(outdir, "report.csv") as fh:
        write_reports_csv([], fh)
    with _open_out(outdir, "summary.txt") as fh:
        fh.write(f"orbit rows: {len(rows)}\n")
    return 0


_MODE_HANDLERS = {
    "corollary": _mode_corollary,
    "theorem": _mode_theorem,
    "criterion-pointwise": _mode_pointwise,
    "construct-phi": _mode_construct_phi,
    "dual-transitivity": _mode_dual,
    "example24": _mode_example24,
    "example28": _mode_example28,
}


def _cmd_run(args) -> int:
    text, base_dir = _resolve_text(args.scenario)
    scenario = parse_scenario(text, base_dir)
    scenario = with_overrides(
        scenario, tol=args.tol, k_max=args.kmax, horizon=args.horizon
    )
    outdir = args.out if args.out is not None else os.path.join("runs", scenario.name)
    os.makedirs(outdir, exist_ok=True)

    if scenario.mode == "orbit":
        return _run_orbit(scenario, outdir)

    reports, artifacts = _MODE_HANDLERS[scenario.mode](scenario)
    with _open_out(outdir, "report.csv") as fh:
        write_reports_csv(reports, fh)
    with _open_out(outdir, "summary.txt") as fh:
        fh.write(render_summary(reports))
    for name, mat in sorted(artifacts.items()):
        save_finmat(mat, os.path.join(outdir, name))
    return 0 if all_decay(reports) else 1


def _cmd_validate(args) -> int:
    text, base_dir = _resolve_text(args.scenario)
    _, diags = analyze_scenario(text, base_dir)
    if not diags:
        print("ok")
        return 0
    for diag in diags:
        print(diag)
    return 2


def _cmd_list_builtin() -> int:
    for name in list_builtin():
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opdyn",
        description="Decay criteria and approximant constructions for "
        "two-sided multiplication operators on lattice matrix spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write reports")
    run_p.add_argument("scenario", help="scenario file path or builtin name")
    run_p.add_argument("--out", help="output directory (default runs/<name>)")
    run_p.add_argument("--tol", type=float, help="override the tolerance")
    run_p.add_argument("--kmax", type=int, help="override k_max")
    run_p.add_argument("--horizon", type=int, help="override the horizon")

    val_p = sub.add_parser("validate", help="check a scenario without running")
    val_p.add_argument("scenario", help="scenario file path or builtin name")

    sub.add_parser("list-builtin", help="list shipped scenario names")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list_builtin()
    except ScenarioError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HorizonExceeded, WindowExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NonFiniteEntry as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception:
        traceback.print_exc()
        return 6


if __name__ == "__main__":
    sys.exit(main())
