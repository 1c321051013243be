#!/bin/sh
# Local CI: build, formatting check (when ocamlformat is installed),
# tests, the stress sweeps, the trace export-and-audit check, the bench
# smoke, the allocation gate and the big-cluster scale smoke.
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
# bench/trajectory.jsonl keeps that count, one {"pr": N, "lib_loc": L}
# line per change; its last line must be this tree's count.
TRAJECTORY_LOC=$(tail -n 1 bench/trajectory.jsonl | sed -n 's/.*"lib_loc": *\([0-9]*\).*/\1/p')
if [ "$TRAJECTORY_LOC" != "$LIB_LOC" ]; then
  echo "bench/trajectory.jsonl: last lib_loc is '$TRAJECTORY_LOC', lib/ has $LIB_LOC lines." >&2
  echo "Append this change's line: {\"pr\": N, \"lib_loc\": $LIB_LOC}" >&2
  exit 1
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


echo "== dune runtest =="
dune runtest

# check_pin FILE NAME GOT: fail unless GOT is NAME's line in FILE.  The
# pin files hold one "NAME VALUE" line per gated output ('#' comments):
# simulated results are deterministic, so each is gated exactly.
check_pin() {
  want=$(awk -v name="$2" '$1 == name { print $2 }' "$1")
  if [ -z "$want" ] || [ "$3" != "$want" ]; then
    echo "$2: got $3, expected $want ($1)." >&2
    echo "Update $1 only for an intended change to simulated output, and say why." >&2
    exit 1
  fi
}

# experiments OUT FLAGS...: cblsim experiment FLAGS > OUT.  Every judged
# paper claim must hold: cblsim experiment exits 1 when one does not.
experiments() {
  out=$1
  shift
  dune exec bin/cblsim.exe -- experiment "$@" > "$out" || {
    echo "cblsim experiment $*: a judged paper claim does not hold (see above)" >&2
    exit 1
  }
}

# A change that is not meant to change the protocol leaves the JSON of
# the full and the quick sweep bit-identical, and EXPERIMENTS.md
# records the full sweep's text tables verbatim.
echo "== experiment claims + fingerprints (bench/experiments.sha256) =="
experiments EXPERIMENT_RUN.json --json
check_pin bench/experiments.sha256 full "$(sha256sum EXPERIMENT_RUN.json | cut -d' ' -f1)"
experiments EXPERIMENT_QUICK.json --quick --json
check_pin bench/experiments.sha256 quick "$(sha256sum EXPERIMENT_QUICK.json | cut -d' ' -f1)"
echo "== EXPERIMENTS.md recorded tables vs cblsim experiment =="
experiments EXPERIMENT_RUN.txt
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
    check_pin bench/stress.fingerprints "$leg" "$(sed -n 's/^stress fingerprint: //p' STRESS_RUN.txt)"
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

# The JSONL export-and-parse path: a traced crash/recovery run written
# by `cblsim trace`, read back by `cblsim audit FILE`.  Every exported
# line must parse, and the audit must find no violation.
echo "== trace export + offline audit: cblsim trace --crash 1@15 -> TRACE_RUN.jsonl =="
dune exec bin/cblsim.exe -- trace --crash 1@15 > TRACE_RUN.jsonl
dune exec bin/cblsim.exe -- audit TRACE_RUN.jsonl --out AUDIT_REPORT_TRACE.json
python3 - TRACE_RUN.jsonl AUDIT_REPORT_TRACE.json <<'EOF'
import json, sys
lines = sum(1 for line in open(sys.argv[1]) if line.strip())
checked = json.load(open(sys.argv[2]))["reports"][0]["report"]["events_checked"]
if checked != lines:
    sys.exit(f"cblsim audit parsed {checked} of the {lines} exported events")
EOF

# The same path for an early-lock-release run: its commit.dep and
# lock.early_release events must reach the JSONL and parse back, and the
# audit (release-after-submit discipline, commit antecedents) must find
# no violation.
echo "== elr trace export + offline audit: cblsim trace --group-commit --elr -> TRACE_ELR.jsonl =="
dune exec bin/cblsim.exe -- trace --group-commit --elr > TRACE_ELR.jsonl
dune exec bin/cblsim.exe -- audit TRACE_ELR.jsonl --out AUDIT_REPORT_TRACE_ELR.json
python3 - TRACE_ELR.jsonl AUDIT_REPORT_TRACE_ELR.json <<'EOF'
import json, sys
kinds = [json.loads(line)["kind"] for line in open(sys.argv[1]) if line.strip()]
report = json.load(open(sys.argv[2]))
checked = report["reports"][0]["report"]["events_checked"]
if checked != len(kinds):
    sys.exit(f"cblsim audit parsed {checked} of the {len(kinds)} exported events")
if report["total_violations"] != 0:
    sys.exit(f"cblsim audit found {report['total_violations']} violation(s)")
for kind in ("commit.dep", "lock.early_release"):
    if kind not in kinds:
        sys.exit(f"the early-lock-release trace holds no {kind} event")
EOF

# A filtered export of an overflowed ring must still say it is a
# suffix: the trace.dropped summary survives every filter, last.
echo "== filtered export keeps the overflow marker: cblsim trace --txns 250 --kind txn.commit =="
dune exec bin/cblsim.exe -- trace --txns 250 --kind txn.commit 2>/dev/null > TRACE_FILTERED.jsonl
python3 - TRACE_FILTERED.jsonl <<'EOF'
import json, sys
last = json.loads(open(sys.argv[1]).read().splitlines()[-1])
if last["kind"] != "trace.dropped":
    sys.exit(f"filtered trace export ends on {last['kind']}, not trace.dropped")
EOF

echo "== bench smoke: tracing overhead, elr lock-hold =="
dune exec bench/main.exe -- json

# Allocation per transaction is deterministic at a fixed seed, so it is
# gated exactly (1%), unlike wall-clock time.
echo "== allocation gate: perfbench minor_words_per_txn (bench/alloc_baseline.json) =="
python3 bench/check_alloc.py bench/alloc_baseline.json

# The smoke's simulated columns are E14's hot-owner row, pinned by the
# full experiments hash.  Its wall-clock events/s varies per machine, so
# the floor only catches an order-of-magnitude slowdown of the simulator
# itself (about 10M events/s on a 2-vCPU host).
echo "== scale smoke: 32 nodes x 256 clients -> BENCH_SCALE.json, >= 150000 events/s =="
dune exec bin/cblsim.exe -- scale --nodes 32 --out BENCH_SCALE.json
python3 - BENCH_SCALE.json <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
col = report["header"].index("events/s (wall)")
slow = [row for row in report["rows"] if float(row[col]) < 150000]
if slow:
    sys.exit(f"scale smoke: events/s (wall) below 150000: {slow}")
EOF

echo "CI OK"
