#!/bin/sh
# Local CI: build, formatting check (when ocamlformat is installed),
# tests, the stress sweeps, the bench smoke, the allocation gate and
# the big-cluster scale smoke.
#
# Every run sweeps max(200, STRESS_RUNS) randomized seeds through
# `cblsim stress` (clean, --faults all, --faults recovery, and
# --faults all with group commit and with early lock release) and the
# traced `cblsim audit --stress` (--faults all, --faults recovery and
# early lock release): about 15 s in all on a 2-vCPU machine.
#
#   STRESS_RUNS=N ./ci.sh    sweeps N seeds instead, when N > 200.
set -eu
cd "$(dirname "$0")"

STRESS_RUNS="${STRESS_RUNS:-0}"

echo "== dune build =="
dune build

# The per-change size trend: lines of lib/ sources, in the log and, on
# GitHub Actions, in the job summary.
LIB_LOC=$(cat lib/*/*.ml lib/*/*.mli | wc -l | tr -d ' ')
echo "lib/ LOC: $LIB_LOC"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  echo "lib/ LOC: $LIB_LOC" >> "$GITHUB_STEP_SUMMARY"
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt (check) =="
  dune build @fmt || {
    echo "formatting drift: run 'dune fmt' to fix" >&2
    exit 1
  }
else
  echo "== ocamlformat not installed; skipping format check =="
fi

echo "== cbl-lint (protocol static analysis, gating) =="
dune exec bin/cbl_lint.exe -- --out LINT_REPORT.json

# The allowlist exists as an escape hatch for incremental adoption, but
# this repo keeps it empty: violations are fixed at the source, never
# grandfathered.  Any real entry fails CI.
if grep -vE '^[[:space:]]*(#|$)' lint_allowlist.txt >/dev/null 2>&1; then
  echo "lint_allowlist.txt has live entries; fix the violations instead:" >&2
  grep -vE '^[[:space:]]*(#|$)' lint_allowlist.txt >&2
  exit 1
fi

echo "== dune runtest =="
dune runtest

# Every judged paper claim must hold: cblsim experiment exits 1 when one
# does not.  Simulated results are deterministic: a change that is not
# meant to change the protocol leaves every experiment's JSON
# bit-identical, and EXPERIMENTS.md records the text tables verbatim.
echo "== experiment claims + fingerprint (bench/experiments.sha256) =="
dune exec bin/cblsim.exe -- experiment --json > EXPERIMENT_RUN.json || {
  echo "cblsim experiment failed: a judged paper claim does not hold (see above)" >&2
  exit 1
}
EXP_SHA=$(sha256sum EXPERIMENT_RUN.json | cut -d' ' -f1)
EXP_WANT=$(cat bench/experiments.sha256)
if [ "$EXP_SHA" != "$EXP_WANT" ]; then
  echo "cblsim experiment --json changed: sha256 $EXP_SHA, expected $EXP_WANT." >&2
  echo "Update bench/experiments.sha256 only for an intended protocol change." >&2
  exit 1
fi
echo "== EXPERIMENTS.md recorded tables vs cblsim experiment =="
dune exec bin/cblsim.exe -- experiment > EXPERIMENT_RUN.txt || {
  echo "cblsim experiment failed: a judged paper claim does not hold (see above)" >&2
  exit 1
}
# the fenced block under "## Recorded tables", fences excluded
sed -n '/^## Recorded tables$/,$p' EXPERIMENTS.md | sed '1,/^```$/d' | sed '/^```$/,$d' \
  > EXPERIMENT_RECORDED.txt
diff -u EXPERIMENT_RECORDED.txt EXPERIMENT_RUN.txt || {
  echo "EXPERIMENTS.md's recorded tables differ from 'cblsim experiment' (diff above):" >&2
  echo "replace the block under '## Recorded tables' with its output." >&2
  exit 1
}

# Stress sweeps, on every run and at least 200 seeds regardless of the
# requested sweep size: the clean schedule, every fault class at once
# (alone, with group commit, with early lock release), and crashes at
# the recovery crash points with network faults during the recovery
# exchanges, so the restart/deferral paths always get real coverage.
# The protocol auditor replays the same schedules traced and checks
# each run's event stream against the protocol invariants (WAL
# ordering, batch-loss closure, PSN lineage, deferred fence, 2PL
# release discipline, weakened to release-after-submit under early
# lock release).
SWEEP_RUNS="$STRESS_RUNS"
[ "$SWEEP_RUNS" -lt 200 ] && SWEEP_RUNS=200
# stress_leg LEG FLAGS...: one sweep.  At the default 200 runs its
# fingerprint must equal LEG's line in bench/stress.fingerprints: a
# change that still verifies but moves the schedule fails here.
stress_leg() {
  leg=$1
  shift
  echo "== stress: $SWEEP_RUNS runs ($leg) =="
  dune exec bin/cblsim.exe -- stress --runs "$SWEEP_RUNS" "$@" > STRESS_RUN.txt || {
    cat STRESS_RUN.txt
    exit 1
  }
  cat STRESS_RUN.txt
  if [ "$SWEEP_RUNS" -eq 200 ]; then
    got=$(sed -n 's/^stress fingerprint: //p' STRESS_RUN.txt)
    want=$(awk -v leg="$leg" '$1 == leg { print $2 }' bench/stress.fingerprints)
    if [ "$got" != "$want" ]; then
      echo "stress ($leg) fingerprint $got, expected $want (bench/stress.fingerprints)." >&2
      echo "Update it only for an intended change to the simulated schedule." >&2
      exit 1
    fi
  fi
}
stress_leg clean
stress_leg all --faults all
stress_leg all+group-commit --faults all --group-commit
stress_leg all+group-commit+elr --faults all --group-commit --elr
stress_leg recovery --faults recovery
echo "== audit: $SWEEP_RUNS traced fault-injected runs (--faults all) =="
dune exec bin/cblsim.exe -- audit --stress --runs "$SWEEP_RUNS" --faults all \
  --out AUDIT_REPORT.json
echo "== audit: $SWEEP_RUNS traced early-lock-release runs (--faults all --group-commit --elr) =="
dune exec bin/cblsim.exe -- audit --stress --runs "$SWEEP_RUNS" --faults all \
  --group-commit --elr --out AUDIT_REPORT_ELR.json
echo "== audit: $SWEEP_RUNS traced recovery-fault runs (--faults recovery) =="
dune exec bin/cblsim.exe -- audit --stress --runs "$SWEEP_RUNS" --faults recovery \
  --out AUDIT_REPORT_RECOVERY.json

echo "== bench smoke: quick JSON reports + throughput regression gate =="
dune exec bench/main.exe -- json
dune exec bench/check_regression.exe -- bench/bench_baseline.json

# Allocation per transaction is deterministic at a fixed seed, so it is
# gated exactly (1%), unlike wall-clock time.
echo "== allocation gate: perfbench minor_words_per_txn (bench/alloc_baseline.json) =="
python3 bench/check_alloc.py bench/alloc_baseline.json

# The deterministic txn/s column is held to 5%; the wall-clock
# events/s column only guards against an order-of-magnitude slowdown
# of the simulator itself (machines differ, so its budget is 85%).
echo "== scale smoke: 32 nodes x 256 clients -> BENCH_SCALE.json + gate =="
dune exec bin/cblsim.exe -- scale --nodes 32 --out BENCH_SCALE.json
dune exec bench/check_regression.exe -- bench/bench_scale_baseline.json BENCH_SCALE_DIFF.txt

echo "CI OK"
