"""Record the default-seed reference outputs the correctness gate compares
against.  Run once, on the commit whose outputs become the reference:

    python3 perfbench/make_reference.py

For each workload it writes ``reference/<name>.csv`` (the report) and
``reference/<name>.json`` (exit code and artifact names).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from run import WORK, WORKLOADS, child_env  # noqa: E402


def main() -> int:
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    env = child_env()
    for name in WORKLOADS:
        tmp = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=WORK)
        try:
            wl = workloads.generate(name, check.DEFAULT_SEED, os.path.join(tmp, "in"))
            out = os.path.join(tmp, "out")
            cmd = [sys.executable, "-m", "opdyn", "run", wl.scenario, "--out", out]
            code = subprocess.run(cmd, env=env, timeout=300).returncode
            problems = check.Gate(wl).check(out, code)
            if problems:
                print(f"{name}: output fails the gate: {problems[:3]}", file=sys.stderr)
                return 1
            shutil.copyfile(
                os.path.join(out, "report.csv"),
                os.path.join(check.REFERENCE_DIR, f"{name}.csv"),
            )
            artifacts = sorted(
                f for f in os.listdir(out) if f not in ("report.csv", "summary.txt")
            )
            meta = {"seed": check.DEFAULT_SEED, "exit_code": code, "artifacts": artifacts}
            with open(os.path.join(check.REFERENCE_DIR, f"{name}.json"), "w") as fh:
                json.dump(meta, fh, indent=1)
                fh.write("\n")
            print(f"{name}: exit {code}, {len(artifacts)} artifacts")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
