"""Closed-loop load generator: runs in a fresh interpreter next to opdyn.

Calls ``opdyn.cli.main(["run", <scenario>, "--out", <fresh dir>])`` one at a
time, each call starting after the previous one returned, until the time
budget is spent (at least one call).  Only wall and CPU time of each call
are taken inside the timed region; checking the outputs is left to the
harness, after this process has exited.

With ``--trace 1`` the calls alternate untraced and traced (untraced first,
at most MAX_TRACED_CALLS traced), so the two medians give the tracing
overhead, and the spans of the traced calls are written to ``spans.npz`` in
the output root.

Usage (the harness sets PYTHONPATH to the checkout's ``src``):

    python3 perfbench/worker.py --src SRC --scenario S --out-root DIR \
        --seconds N --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


#: Traced calls per run.  Spans stay in memory until the end (a traced dual
#: call records about 250k of them), so later calls run untraced.
MAX_TRACED_CALLS = 3


def _load_opdyn(src_dir: str):
    import opdyn
    import opdyn.cli

    here = os.path.realpath(os.path.dirname(opdyn.__file__))
    want = os.path.realpath(os.path.join(src_dir, "opdyn"))
    if here != want:
        raise SystemExit(f"worker: imported opdyn from {here}, expected {want}")
    return opdyn


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True, help="directory holding opdyn/")
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--out-root", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    opdyn = _load_opdyn(args.src)
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.prepare(opdyn)

    calls = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = (
            tracer is not None
            and len(calls) % 2 == 1
            and len(calls) < 2 * MAX_TRACED_CALLS
        )
        out = os.path.join(args.out_root, f"call{len(calls):04d}")
        argv_run = ["run", args.scenario, "--out", out]
        if traced:
            tracer.begin_request()
            tracer.install()
        error = None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            code = opdyn.cli.main(argv_run)
        except Exception as exc:  # recorded as a failed call, not a crash
            code = None
            error = f"{type(exc).__name__}: {exc}"
        c1 = time.process_time()
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
            tracer.end_request()
        calls.append(
            {
                "out": out,
                "code": code,
                "error": error,
                "wall_s": t1 - t0,
                "cpu_s": c1 - c0,
                "traced": traced,
            }
        )
        if t1 >= deadline and (tracer is None or len(calls) >= 2):
            break

    result = {
        "calls": calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": None,
    }
    if tracer is not None:
        result["spans"] = os.path.join(args.out_root, "spans.npz")
        tracer.save(result["spans"])
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
