#!/bin/sh
# Local CI: build, formatting check (when ocamlformat is installed),
# tests, and an optional randomized stress sweep.
#
#   STRESS_RUNS=N ./ci.sh    additionally runs N randomized crash/verify
#                            stress iterations, once clean and once with
#                            every fault class injected (--faults all).
#                            0 (the default) skips the sweep.
#   SCALE_SMOKE=1 ./ci.sh    additionally runs the big-cluster scale
#                            smoke (32 nodes x 256 clients ->
#                            BENCH_SCALE.json) and gates its throughput
#                            and simulator-speed columns against
#                            bench/bench_scale_baseline.json.
set -eu
cd "$(dirname "$0")"

STRESS_RUNS="${STRESS_RUNS:-0}"
SCALE_SMOKE="${SCALE_SMOKE:-0}"

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

# Simulated results are deterministic: a change that is not meant to
# change the protocol leaves every experiment's JSON bit-identical.
echo "== experiment fingerprint (bench/experiments.sha256) =="
EXP_SHA=$(dune exec bin/cblsim.exe -- experiment --json | sha256sum | cut -d' ' -f1)
EXP_WANT=$(cat bench/experiments.sha256)
if [ "$EXP_SHA" != "$EXP_WANT" ]; then
  echo "cblsim experiment --json changed: sha256 $EXP_SHA, expected $EXP_WANT." >&2
  echo "Update bench/experiments.sha256 only for an intended protocol change." >&2
  exit 1
fi

if [ "$STRESS_RUNS" -gt 0 ]; then
  echo "== stress: $STRESS_RUNS clean runs =="
  dune exec bin/cblsim.exe -- stress --runs "$STRESS_RUNS"
  echo "== stress: $STRESS_RUNS fault-injected runs (--faults all) =="
  dune exec bin/cblsim.exe -- stress --runs "$STRESS_RUNS" --faults all
  echo "== stress: $STRESS_RUNS fault-injected runs with group commit (--faults all --group-commit) =="
  dune exec bin/cblsim.exe -- stress --runs "$STRESS_RUNS" --faults all --group-commit
  echo "== stress: $STRESS_RUNS fault-injected runs with early lock release (--faults all --group-commit --elr) =="
  dune exec bin/cblsim.exe -- stress --runs "$STRESS_RUNS" --faults all --group-commit --elr
  # recovery-fault leg: crashes at the recovery crash points, network
  # faults during recovery exchanges — at least 200 seeds regardless of
  # the requested sweep size, so the restart/deferral paths always get
  # real coverage.
  RECOVERY_RUNS="$STRESS_RUNS"
  [ "$RECOVERY_RUNS" -lt 200 ] && RECOVERY_RUNS=200
  echo "== stress: $RECOVERY_RUNS recovery-fault runs (--faults recovery) =="
  dune exec bin/cblsim.exe -- stress --runs "$RECOVERY_RUNS" --faults recovery
  # protocol auditor over the same schedules, traced: every stress seed
  # is replayed with causal tracing on and its event stream checked
  # against the PR 1-5 invariants (WAL ordering, batch-loss closure,
  # PSN lineage, deferred fence, 2PL release discipline).
  echo "== audit: $STRESS_RUNS traced fault-injected runs (--faults all) =="
  dune exec bin/cblsim.exe -- audit --stress --runs "$STRESS_RUNS" --faults all \
    --out AUDIT_REPORT.json
  echo "== audit: $STRESS_RUNS traced early-lock-release runs (--faults all --group-commit --elr) =="
  dune exec bin/cblsim.exe -- audit --stress --runs "$STRESS_RUNS" --faults all \
    --group-commit --elr --out AUDIT_REPORT_ELR.json
  echo "== audit: $RECOVERY_RUNS traced recovery-fault runs (--faults recovery) =="
  dune exec bin/cblsim.exe -- audit --stress --runs "$RECOVERY_RUNS" --faults recovery \
    --out AUDIT_REPORT_RECOVERY.json
fi

echo "== bench smoke: quick JSON reports + throughput regression gate =="
dune exec bench/main.exe -- json
dune exec bench/check_regression.exe -- bench/bench_baseline.json

if [ "$SCALE_SMOKE" = "1" ]; then
  # The deterministic txn/s column is held to 5%; the wall-clock
  # events/s column only guards against an order-of-magnitude slowdown
  # of the simulator itself (machines differ, so its budget is 85%).
  echo "== scale smoke: 32 nodes x 256 clients -> BENCH_SCALE.json + gate =="
  dune exec bin/cblsim.exe -- scale --nodes 32 --out BENCH_SCALE.json
  dune exec bench/check_regression.exe -- bench/bench_scale_baseline.json BENCH_SCALE_DIFF.txt
fi

echo "CI OK"
