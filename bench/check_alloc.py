#!/usr/bin/env python3
"""Allocation gate: perfbench's minor_words_per_txn against a baseline.

    python3 bench/check_alloc.py bench/alloc_baseline.json

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
for every workload the baseline names, from the repository root, and
fails if a workload's minor_words_per_txn exceeds its baseline by more
than the baseline's tolerance.  At a fixed seed the value is
deterministic (it does not depend on the machine's speed or on the
number of repetitions), so the tolerance only absorbs rounding.
Lower values pass; lower the baseline when a change earns it.
"""

import json
import subprocess
import sys


def main(path):
    with open(path) as f:
        base = json.load(f)
    tol = base["tolerance"]
    failed = False
    for workload, want in base["minor_words_per_txn"].items():
        run = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", workload,
             "--seed", str(base["seed"]), "--seconds", str(base["seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.stderr.write(run.stdout + run.stderr)
            print(f"{workload}: perfbench failed (exit {run.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        got = result["metrics"]["minor_words_per_txn"]["value"]
        drift = got / want - 1.0
        ok = result["correct"] and drift <= tol
        failed = failed or not ok
        print(f"{workload:<14} minor_words_per_txn {got:10.2f}  baseline {want:10.2f}"
              f"  {drift * 100:+6.2f}%  {'ok' if ok else 'FAIL'}")
    if failed:
        print(f"allocation above baseline by more than {tol * 100:g}% ({path}), "
              "or an incorrect run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
