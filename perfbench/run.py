"""opdyn benchmark: seeded `opdyn run` workloads, end to end and per layer.

    python3 perfbench/run.py --workload families|construct|dual|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program under test is the ``src/opdyn`` next to this
directory.  For one workload the last line of standard output is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``; the lines above it
give every metric with its unit and sample count, plus provenance.

Load is one closed loop in one fresh worker process: each call of
``opdyn.cli.main(["run", <scenario>, "--out", <fresh dir>])`` starts after
the previous one returned.  The harness itself starts no threads and never
imports opdyn; it checks every call's output afterwards (see check.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics (see tracer.py
and README.md for which end-to-end metric each one should move).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("families", "construct", "dual")

#: Fresh interpreters timed for setup_s, half before and half after the
#: closed loop so that the samples span the run; one untimed warm-up first
#: leaves the bytecode cache written.
SETUP_SAMPLES = 12

#: A run that takes longer than this is killed and reported as an error.
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: Per-layer metrics: (name, unit).  ``<module>.<function>.<quantity>``:
#: ``calls`` and ``self_s`` come from spans, the rest from work counts.
PER_LAYER = (
    ("scenario.parse_scenario.self_s", "s"),
    ("lattice.monomial_product_norm.calls", "count"),
    ("lattice.monomial_product_norm.self_s", "s"),
    ("lattice.monomial_product_norm_rowcut.calls", "count"),
    ("lattice.monomial_product_norm_rowcut.self_s", "s"),
    ("lattice.shift_power_apply.calls", "count"),
    ("lattice.shift_power_apply.self_s", "s"),
    ("lattice.shift_star_power_apply.calls", "count"),
    ("lattice.unitary_power_apply.calls", "count"),
    ("lattice.unitary_power_apply.self_s", "s"),
    ("finmat.FiniteMatrix.calls", "count"),
    ("finmat.FiniteMatrix.self_s", "s"),
    ("finmat.FiniteMatrix.entries_in", "count"),
    ("finmat.FiniteMatrix.drop_ratio", "ratio"),
    ("finmat.compose.calls", "count"),
    ("finmat.compose.self_s", "s"),
    ("finmat.shift_multiply.calls", "count"),
    ("finmat.shift_multiply.self_s", "s"),
    ("finmat.shift_multiply.entries", "count"),
    ("finmat.permute_multiply.calls", "count"),
    ("finmat.permute_multiply.self_s", "s"),
    ("finmat.op_norm.calls", "count"),
    ("finmat.op_norm.self_s", "s"),
    ("finmat.op_norm.dense_calls", "count"),
    ("finmat.op_norm.dense_cells", "count"),
    ("finmat.op_norm.monomial_share", "ratio"),
    ("finmat.trace_norm.calls", "count"),
    ("finmat.trace_norm.self_s", "s"),
    ("finmat.write_finmat.calls", "count"),
    ("finmat.write_finmat.self_s", "s"),
    ("finmat.write_finmat.bytes", "bytes"),
    ("elementary.apply_power.calls", "count"),
    ("elementary.apply_power.self_s", "s"),
    ("criteria.make_report.calls", "count"),
    ("criteria.make_report.self_s", "s"),
    ("criteria.write_reports_csv.self_s", "s"),
    ("criteria.write_reports_csv.bytes", "bytes"),
    ("constructor.construct_approximant.calls", "count"),
    ("constructor.construct_approximant.self_s", "s"),
    ("constructor.construct_approximant.useful_ratio", "ratio"),
    ("constructor.verify_approximant_convergence.self_s", "s"),
    ("duality.eval_functional.calls", "count"),
    ("duality.eval_functional.self_s", "s"),
    ("duality.eval_functional.terms", "count"),
    ("duality.weak_star_distance.calls", "count"),
    ("duality.weak_star_distance.self_s", "s"),
    ("duality.construct_dual_approximant.calls", "count"),
    ("duality.construct_dual_approximant.self_s", "s"),
    ("duality.dual_apply_power.calls", "count"),
    ("duality.dual_apply_power.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- provenance -------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search parent directories); 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(load1: float) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min_at_start": load1,
    }


# -- measurement ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    # the checkout's src first; the worker refuses an opdyn from elsewhere
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    # One BLAS thread.  opdyn's dense blocks are small enough that OpenBLAS
    # runs them on one thread anyway, while starting its thread pool adds
    # ~70 ms and most of the run-to-run noise to every fresh interpreter.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


SETUP_CODE = (
    "import os, sys\n"
    "import opdyn\n"
    "from opdyn.scenario import parse_scenario\n"
    "path = sys.argv[1]\n"
    "with open(path, encoding='utf-8') as fh:\n"
    "    parse_scenario(fh.read(), os.path.dirname(os.path.abspath(path)))\n"
)


def measure_setup(scenario: str, env: dict, count: int, warm_up: bool) -> list[float]:
    """Wall seconds for a fresh interpreter to import opdyn and parse the
    scenario, as every CLI invocation does before computing."""
    cmd = [sys.executable, "-c", SETUP_CODE, scenario]
    if warm_up:
        subprocess.run(cmd, env=env, check=True, timeout=60)
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return samples


def run_worker(workload, seconds: float, trace: int, workdir: str, env: dict) -> dict:
    out_root = os.path.join(workdir, "out")
    os.makedirs(out_root)
    result_path = os.path.join(workdir, "worker.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--src", SRC,
        "--scenario", workload.scenario,
        "--out-root", out_root,
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--result", result_path,
    ]
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile_note(samples: list[float]) -> str:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for q in (50, 75, 90, 95, 99):
        rank = math.ceil(q / 100 * n)  # nearest-rank percentile
        if rank >= 1 and n - rank >= 10:
            best = (q, ordered[rank - 1])
    if best is None:
        return "no percentile has >=10 samples beyond it"
    return f"p{best[0]} = {best[1]:.6f}"


def check_calls(gate, calls: list[dict]) -> list[list[str]]:
    """Check every call's output, outside the timed region; each output
    directory is removed once checked."""
    problems = []
    for call in calls:
        if call["error"] is not None:
            found = [f"raised {call['error']}"]
        else:
            found = gate.check(call["out"], call["code"])
        problems.append(found)
        shutil.rmtree(call["out"], ignore_errors=True)
    return problems


def layer_metrics(worker: dict) -> dict[str, float]:
    """Per-layer metrics from the traced calls: span counts and self times,
    work counts and their ratios, each the median over traced calls."""
    import numpy as np
    from tracer import self_time_table

    data = np.load(worker["spans"])
    names = [str(x) for x in data["names"]]
    table = self_time_table(
        names, data["start"], data["end"], data["name"], data["parent"], data["request"]
    )
    work_keys = [str(x) for x in data["work_keys"]]
    per_request = []
    for req, row in enumerate(data["work"]):
        spans = table.get(req, {})
        work = dict(zip(work_keys, (float(x) for x in row)))
        per_request.append(_layer_values(spans, work))
    traced = [c["wall_s"] for c in worker["calls"] if c["traced"]]
    plain = [c["wall_s"] for c in worker["calls"] if not c["traced"]]
    out = {
        name: statistics.median(values[name] for values in per_request)
        for name, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["_lattice_share"] = statistics.median(v["_lattice_share"] for v in per_request)
    out["_largest_self"] = per_request[0]["_largest_self"]
    return out


def _layer_values(spans: dict, work: dict) -> dict:
    from tracer import BOOKKEEPING

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _ in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        calls, self_s = spans.get(span, (0, 0.0))
        if quantity == "calls":
            values[name] = calls
        elif quantity == "self_s":
            values[name] = self_s
        elif quantity == "drop_ratio":
            values[name] = ratio(work.get(span + ".dropped", 0.0), work.get(span + ".entries_in", 0.0))
        elif quantity == "monomial_share":
            values[name] = ratio(calls - work.get(span + ".dense_calls", 0.0), calls)
        elif quantity == "useful_ratio":
            values[name] = ratio(work.get(span + ".distinct_k", 0.0), calls)
        elif quantity != "overhead_s":
            values[name] = work.get(name, 0.0)
    # shape of the profile: lattice's share of all self time, and the span
    # with the largest self time (tracer bookkeeping excluded)
    own = {key: s for key, (_, s) in spans.items() if key != BOOKKEEPING}
    lattice = sum(s for key, s in own.items() if key.startswith("lattice."))
    values["_lattice_share"] = ratio(lattice, sum(own.values()))
    values["_largest_self"] = max(own, key=own.get)
    return values


# -- one workload -------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    sys.path.insert(0, HERE)
    import check
    import workloads

    load1 = os.getloadavg()[0]
    prov = provenance(load1)
    env = child_env()
    workdir = os.path.join(WORK, f"{name}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        wl = workloads.generate(name, seed, os.path.join(workdir, "inputs"))
        reference = check.load_reference(name) if seed == check.DEFAULT_SEED else None
        gate = check.Gate(wl, reference)
        half = 0 if trace else SETUP_SAMPLES // 2
        setup = measure_setup(wl.scenario, env, half, warm_up=half > 0)
        worker = run_worker(wl, seconds, trace, workdir, env)
        setup += measure_setup(wl.scenario, env, half, warm_up=False)
        problems = check_calls(gate, worker["calls"])
        layers = layer_metrics(worker) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = worker["calls"]
    failed = sum(1 for p in problems if p)
    walls = [c["wall_s"] for c in calls if not c["traced"]]
    cpus = [c["cpu_s"] for c in calls if not c["traced"]]
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"{len(calls)} calls in one closed loop")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for i, found in enumerate(problems):
        for msg in found[:5]:
            print(f"  call {i} FAILED CHECK: {msg}", file=sys.stderr)
    if trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
        for n, u in PER_LAYER:
            print(f"  {n:50s} {layers[n]:.6g} {u}")
        n_traced = sum(1 for c in calls if c["traced"])
        print(f"  (medians over {n_traced} traced calls; "
              f"{len(walls)} untraced calls for the overhead)")
        print(f"  shape: lattice self-time share {layers['_lattice_share']:.3f}; "
              f"largest self time {layers['_largest_self']}")
    else:
        values = {
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup),
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        print(f"  run_s        {values['run_s']:.6f} s   median of {len(walls)} calls; "
              f"{percentile_note(walls)}")
        print(f"  cpu_s        {values['cpu_s']:.6f} s   median of {len(cpus)} calls")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.3f} MB  worker process peak")
        print(f"  setup_s      {values['setup_s']:.6f} s   median of {len(setup)} "
              f"fresh interpreters")
    print(f"  failed_ratio {failed}/{len(calls)} = {failed / len(calls):.6g}")
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = os.path.join(WORK, "results", f"{stamp}-{name}-s{seed}-t{trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "provenance": prov, **result}, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opdyn", "__init__.py")):
        return fail(f"no opdyn package under {SRC}; run from a full checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    try:
        import numpy  # noqa: F401  (the gate and the program both need it)
    except ImportError:
        return fail("numpy is not importable")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_one(name, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError) as exc:
            return fail(f"{name}: {exc}")
        # a failed correctness check is a result (correct: false), not an error
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
