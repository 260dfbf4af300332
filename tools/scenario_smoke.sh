#!/usr/bin/env bash
# Registry smoke: runs every registered scenario at quick scale, runs one
# scenario through every registered detector, then records one composite's
# trace and replays it, asserting the RunSummary JSON is byte-identical.
# Also exercises the telemetry subsystem: the --telemetry JSONL channel
# must be byte-identical across record/replay and thread counts, and the
# --chrome-trace export must be valid JSON with per-lane tracks (copied to
# $SMOKE_ARTIFACT_DIR when set, so CI can upload it).
# CI runs this so a registry regression, a spec-parser break, or a
# record/replay divergence fails the build.
#
#   tools/scenario_smoke.sh [path/to/dynsub_run]
set -euo pipefail

BIN="${1:-build/release/dynsub_run}"
if [[ ! -x "$BIN" ]]; then
  echo "scenario_smoke.sh: no runner at $BIN (build the release preset first)" >&2
  exit 2
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== registry =="
"$BIN" --list

count=0
while IFS= read -r spec; do
  [[ -n "$spec" ]] || continue
  echo "== $spec =="
  "$BIN" --scenario "$spec" --quick --max-rounds 200000 > "$TMP/run.out"
  grep -q '^settled:    yes' "$TMP/run.out" || {
    echo "scenario_smoke.sh: '$spec' did not settle" >&2
    cat "$TMP/run.out" >&2
    exit 1
  }
  count=$((count + 1))
done < <("$BIN" --list --names-only)

echo "== detectors =="
dcount=0
while IFS= read -r detector; do
  [[ -n "$detector" ]] || continue
  echo "== detector: $detector =="
  "$BIN" --scenario 'churn(n=24, rounds=40)' --detector "$detector" \
    --quick --max-rounds 200000 > "$TMP/run.out"
  grep -q '^settled:    yes' "$TMP/run.out" || {
    echo "scenario_smoke.sh: detector '$detector' did not settle" >&2
    cat "$TMP/run.out" >&2
    exit 1
  }
  dcount=$((dcount + 1))
done < <("$BIN" --list-detectors)

echo "== record/replay =="
"$BIN" --scenario multi-community-churn --quick \
  --record "$TMP/t.trace" --json "$TMP/a.json" > /dev/null
# No --n on purpose: the trace's "# n=" header must carry the simulator
# size, or idle top node ids would shrink the replay and skew the summary.
"$BIN" --replay "$TMP/t.trace" --json "$TMP/b.json" > /dev/null
python3 - "$TMP/a.json" "$TMP/b.json" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
if a["summary"] != b["summary"]:
    print("scenario_smoke.sh: record/replay summary mismatch", file=sys.stderr)
    print("recorded:", json.dumps(a["summary"]), file=sys.stderr)
    print("replayed:", json.dumps(b["summary"]), file=sys.stderr)
    sys.exit(1)
print("record/replay summaries identical")
EOF

echo "== record/replay with the parallel engine (--threads 4) =="
# The parallel engine must be bit-identical: recording the same scenario
# at 4 lanes yields a byte-equal trace, and replaying it (again at 4
# lanes) reproduces the sequential run's summary exactly.
"$BIN" --scenario multi-community-churn --quick --threads 4 \
  --record "$TMP/t4.trace" --json "$TMP/c.json" > /dev/null
cmp "$TMP/t.trace" "$TMP/t4.trace" || {
  echo "scenario_smoke.sh: threads=4 recorded trace differs from sequential" >&2
  exit 1
}
"$BIN" --replay "$TMP/t4.trace" --threads 4 --json "$TMP/d.json" > /dev/null
python3 - "$TMP/a.json" "$TMP/c.json" "$TMP/d.json" <<'EOF'
import json, sys
docs = [json.load(open(p)) for p in sys.argv[1:]]
if not (docs[0]["summary"] == docs[1]["summary"] == docs[2]["summary"]):
    print("scenario_smoke.sh: parallel-engine summary mismatch",
          file=sys.stderr)
    for label, d in zip(["sequential", "t4-record", "t4-replay"], docs):
        print(label + ":", json.dumps(d["summary"]), file=sys.stderr)
    sys.exit(1)
print("sequential / t4-record / t4-replay summaries identical")
EOF

echo "== chaos transport (--faults) =="
# Every registered scenario must settle under a fixed recoverable fault
# plan: drops and corruptions force NACK-and-resend retries at the lane
# seam, but bounded retries recover every batch, so results -- including
# the recorded trace -- must be byte-identical to the fault-free run.
FAULTS='chaos(seed=7, drop=0.05, corrupt=0.02, duplicate=0.05, reorder=0.1, delay=0.02)'
ccount=0
while IFS= read -r spec; do
  [[ -n "$spec" ]] || continue
  echo "== chaos: $spec =="
  "$BIN" --scenario "$spec" --quick --max-rounds 200000 \
    --faults "$FAULTS" > "$TMP/run.out"
  grep -q '^settled:    yes' "$TMP/run.out" || {
    echo "scenario_smoke.sh: '$spec' did not settle under $FAULTS" >&2
    cat "$TMP/run.out" >&2
    exit 1
  }
  ccount=$((ccount + 1))
done < <("$BIN" --list --names-only)

echo "== chaos record/replay =="
# Recoverable chaos must not perturb the trace: record under faults, the
# trace and summary match the fault-free recording byte for byte (fault
# counters live outside the summary's round results).
"$BIN" --scenario multi-community-churn --quick --faults "$FAULTS" \
  --record "$TMP/tc.trace" --json "$TMP/e.json" > /dev/null
cmp "$TMP/t.trace" "$TMP/tc.trace" || {
  echo "scenario_smoke.sh: chaos recorded trace differs from fault-free" >&2
  exit 1
}
"$BIN" --replay "$TMP/tc.trace" --faults "$FAULTS" --json "$TMP/f.json" \
  > /dev/null
python3 - "$TMP/a.json" "$TMP/e.json" "$TMP/f.json" <<'EOF'
import json, sys
docs = [json.load(open(p)) for p in sys.argv[1:]]
keys = [{k: v for k, v in d["summary"].items()
         if not k.startswith("transport_")} for d in docs]
if not (keys[0] == keys[1] == keys[2]):
    print("scenario_smoke.sh: chaos summary mismatch", file=sys.stderr)
    for label, d in zip(["fault-free", "chaos-record", "chaos-replay"], docs):
        print(label + ":", json.dumps(d["summary"]), file=sys.stderr)
    sys.exit(1)
print("fault-free / chaos-record / chaos-replay summaries identical "
      "(modulo transport counters)")
EOF

echo "== bad fault specs fail loudly =="
if "$BIN" --scenario 'churn(n=24, rounds=40)' --quick \
    --faults 'chaos(drop=1.5)' > /dev/null 2>&1; then
  echo "scenario_smoke.sh: drop=1.5 should have been rejected" >&2
  exit 1
fi
if "$BIN" --scenario 'churn(n=24, rounds=40)' --quick \
    --faults 'mayhem(seed=1)' > /dev/null 2>&1; then
  echo "scenario_smoke.sh: unknown fault plan should have been rejected" >&2
  exit 1
fi
echo "bad fault specs fail loudly"

echo "== telemetry channel =="
# The deterministic telemetry channel (--telemetry JSONL) must be
# byte-identical across record/replay and, fault-free, across thread
# counts; the timing channel (--chrome-trace) must never leak into it.
"$BIN" --scenario multi-community-churn --quick \
  --telemetry "$TMP/tel_a.jsonl" > /dev/null
"$BIN" --replay "$TMP/t.trace" --telemetry "$TMP/tel_b.jsonl" > /dev/null
cmp "$TMP/tel_a.jsonl" "$TMP/tel_b.jsonl" || {
  echo "scenario_smoke.sh: replay telemetry differs from recorded" >&2
  exit 1
}
"$BIN" --scenario multi-community-churn --quick --threads 4 \
  --telemetry "$TMP/tel_c.jsonl" > /dev/null
cmp "$TMP/tel_a.jsonl" "$TMP/tel_c.jsonl" || {
  echo "scenario_smoke.sh: threads=4 telemetry differs from sequential" >&2
  exit 1
}
echo "telemetry JSONL byte-identical across replay and --threads 4"

python3 - "$TMP/tel_a.jsonl" <<'EOF'
import json, sys
# Schema sanity for the JSONL round records: every line is an object with
# the full fixed key set (dynsub_stats enforces the strict contract; this
# guards the smoke artifact itself).
KEYS = ["round", "changes", "active", "stepped", "messages", "payload_bits",
        "inconsistent_nodes", "flips_down", "flips_up", "degraded_nodes",
        "had_loss", "transport_retries", "transport_drops",
        "transport_corruptions", "transport_redeliveries",
        "transport_backoff_units", "transport_lost_batches",
        "transport_degraded_marks", "transport_recovery_events",
        "inconsistent_rounds", "changes_total", "amortized", "amortized_sup"]
rounds = 0
last = 0
for line in open(sys.argv[1], encoding="utf-8"):
    rec = json.loads(line)
    if sorted(rec) != sorted(KEYS):
        print("scenario_smoke.sh: telemetry keys drifted:",
              sorted(set(rec) ^ set(KEYS)), file=sys.stderr)
        sys.exit(1)
    if rec["round"] <= last:
        print("scenario_smoke.sh: rounds not increasing", file=sys.stderr)
        sys.exit(1)
    last = rec["round"]
    rounds += 1
if rounds == 0:
    print("scenario_smoke.sh: telemetry JSONL is empty", file=sys.stderr)
    sys.exit(1)
print(f"telemetry JSONL schema ok ({rounds} round records)")
EOF

STATS="$(dirname "$BIN")/dynsub_stats"
if [[ -x "$STATS" ]]; then
  "$STATS" "$TMP/tel_a.jsonl" > /dev/null || {
    echo "scenario_smoke.sh: dynsub_stats rejected the smoke JSONL" >&2
    exit 1
  }
  echo "dynsub_stats accepted the smoke JSONL"
else
  echo "scenario_smoke.sh: dynsub_stats not built at $STATS; skipping" >&2
fi

echo "== chrome trace export =="
"$BIN" --scenario flash-crowd --quick --threads 2 \
  --chrome-trace "$TMP/trace.json" --telemetry "$TMP/tel_d.jsonl" > /dev/null
python3 - "$TMP/trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
if not isinstance(events, list) or not events:
    print("scenario_smoke.sh: traceEvents missing or empty", file=sys.stderr)
    sys.exit(1)
lanes = {e["tid"] for e in events if e.get("ph") == "M"}
if lanes != {0, 1}:
    print("scenario_smoke.sh: expected lane tracks {0, 1}, got", lanes,
          file=sys.stderr)
    sys.exit(1)
spans = [e for e in events if e.get("ph") == "X"]
if not spans or any(e["dur"] < 0 or e["ts"] < 0 for e in spans):
    print("scenario_smoke.sh: bad span events", file=sys.stderr)
    sys.exit(1)
print(f"chrome trace ok: {len(spans)} spans on lane tracks 0 and 1")
EOF
# Turning the timing channel on must not change the deterministic channel:
# the same run without --chrome-trace yields byte-identical JSONL.
"$BIN" --scenario flash-crowd --quick --threads 2 \
  --telemetry "$TMP/tel_e.jsonl" > /dev/null
cmp "$TMP/tel_d.jsonl" "$TMP/tel_e.jsonl" || {
  echo "scenario_smoke.sh: --chrome-trace perturbed the telemetry JSONL" >&2
  exit 1
}
echo "timing channel does not perturb the deterministic channel"

echo "== partitioned shard engine (--shards) =="
# The shard engine is byte-identical: at any shard count, the recorded
# trace, the telemetry JSONL, and the run summary must match the
# single-Router run byte for byte -- fault-free and under recoverable
# chaos on real cross-shard frames -- and at S >= 2 the --shard-stats
# counters must show frames actually crossing the transport seam.
for s in 2 4; do
  "$BIN" --scenario multi-community-churn --quick --shards "$s" \
    --record "$TMP/ts$s.trace" --telemetry "$TMP/tel_s$s.jsonl" \
    --json "$TMP/shard$s.json" > /dev/null
  cmp "$TMP/t.trace" "$TMP/ts$s.trace" || {
    echo "scenario_smoke.sh: shards=$s recorded trace differs" >&2
    exit 1
  }
  cmp "$TMP/tel_a.jsonl" "$TMP/tel_s$s.jsonl" || {
    echo "scenario_smoke.sh: shards=$s telemetry differs" >&2
    exit 1
  }
  python3 - "$TMP/a.json" "$TMP/shard$s.json" <<EOF
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
if a["summary"] != b["summary"]:
    print("scenario_smoke.sh: shards=$s summary mismatch", file=sys.stderr)
    sys.exit(1)
EOF
done
echo "recorded trace, telemetry, summary identical at --shards 2 and 4"

# One chaos scenario through the shard engine: the random-churn topology
# crosses every partition boundary, so the fault plan perturbs real
# cross-shard frames -- and bounded retries must still recover to the
# byte-identical trace.
SHARD_SPEC='churn(n=48, rounds=40, seed=11)'
"$BIN" --scenario "$SHARD_SPEC" --quick \
  --record "$TMP/sref.trace" --shard-stats "$TMP/shards1.jsonl" > /dev/null
"$BIN" --scenario "$SHARD_SPEC" --quick --shards 4 --threads 2 \
  --faults "$FAULTS" --record "$TMP/schaos.trace" \
  --shard-stats "$TMP/shards4.jsonl" > /dev/null
cmp "$TMP/sref.trace" "$TMP/schaos.trace" || {
  echo "scenario_smoke.sh: shards=4 chaos recorded trace differs" >&2
  exit 1
}
echo "chaos at --shards 4 recovers to the byte-identical trace"

python3 - "$TMP/shards1.jsonl" "$TMP/shards4.jsonl" <<'EOF'
import json, sys
s1 = [json.loads(l) for l in open(sys.argv[1], encoding="utf-8")]
s4 = [json.loads(l) for l in open(sys.argv[2], encoding="utf-8")]
if len(s1) != 1 or any(v for k, v in s1[0].items() if k != "shard"):
    print("scenario_smoke.sh: S=1 shard stats should be one all-zero row,"
          " got", s1, file=sys.stderr)
    sys.exit(1)
if len(s4) != 4 or not all(r["frames"] > 0 and r["wire_bytes"] > 0
                           for r in s4):
    print("scenario_smoke.sh: S=4 shard stats missing cross-shard traffic:",
          s4, file=sys.stderr)
    sys.exit(1)
print("shard stats ok: all-zero at S=1, cross-shard wire bytes on every"
      " shard at S=4")
EOF
STATS="$(dirname "$BIN")/dynsub_stats"
if [[ -x "$STATS" ]]; then
  "$STATS" "$TMP/shards4.jsonl" > /dev/null || {
    echo "scenario_smoke.sh: dynsub_stats rejected the shard JSONL" >&2
    exit 1
  }
  echo "dynsub_stats accepted the shard JSONL"
fi

echo "== serve layer =="
SERVE="$(dirname "$BIN")/dynsub_serve"
if [[ -x "$SERVE" ]]; then
  # Scripted requests against live churn under the simulated clock: the
  # answer stream is a pure function of (scenario, script, config), so it
  # must be byte-identical across record/replay and across --threads 4.
  cat > "$TMP/req.script" <<'EOF'
# smoke request schedule
@3 query 0 edge 0:1
@5 query 4 triangle 2 7
@8 list 0 triangle
@20 query 2 clique 3 4 5
@25 query 1 cycle 2 3 4 5
@30 audit
EOF
  "$SERVE" --scenario multi-community-churn --quick \
    --requests "$TMP/req.script" --record "$TMP/s.trace" \
    --answers "$TMP/ans_a.txt" --serve-jsonl "$TMP/serve_a.jsonl" \
    2> "$TMP/serve_a.err"
  grep -q '^settled:    yes' "$TMP/serve_a.err" || {
    echo "scenario_smoke.sh: serve run did not settle" >&2
    cat "$TMP/serve_a.err" >&2
    exit 1
  }
  "$SERVE" --replay "$TMP/s.trace" --requests "$TMP/req.script" \
    --answers "$TMP/ans_b.txt" 2> /dev/null
  cmp "$TMP/ans_a.txt" "$TMP/ans_b.txt" || {
    echo "scenario_smoke.sh: replayed answer stream differs" >&2
    exit 1
  }
  "$SERVE" --scenario multi-community-churn --quick --threads 4 \
    --requests "$TMP/req.script" --answers "$TMP/ans_c.txt" 2> /dev/null
  cmp "$TMP/ans_a.txt" "$TMP/ans_c.txt" || {
    echo "scenario_smoke.sh: threads=4 answer stream differs" >&2
    exit 1
  }
  echo "serve answer stream byte-identical across replay and --threads 4"

  # The shard engine serves the same bytes: snapshots are taken at the
  # round barrier after the cross-shard frame exchange, so the answer
  # stream -- latencies included -- must not change with --shards.
  for s in 2 4; do
    "$SERVE" --scenario multi-community-churn --quick --shards "$s" \
      --requests "$TMP/req.script" --answers "$TMP/ans_s$s.txt" 2> /dev/null
    cmp "$TMP/ans_a.txt" "$TMP/ans_s$s.txt" || {
      echo "scenario_smoke.sh: shards=$s answer stream differs" >&2
      exit 1
    }
  done
  echo "serve answer stream byte-identical across --shards 2 and 4"

  # The serve JSONL is a strict schema surface: dynsub_stats must accept
  # it, and an independent key check guards the guard.
  if [[ -x "$STATS" ]]; then
    "$STATS" "$TMP/serve_a.jsonl" > /dev/null || {
      echo "scenario_smoke.sh: dynsub_stats rejected the serve JSONL" >&2
      exit 1
    }
    echo "dynsub_stats accepted the serve JSONL"
  fi
  python3 - "$TMP/serve_a.jsonl" <<'EOF'
import json, sys
KEYS = ["req", "kind", "status", "node", "round", "arrival_round",
        "arrival_ns", "answer_ns", "latency_ns", "answer", "list_count",
        "backlog"]
count = 0
for line in open(sys.argv[1], encoding="utf-8"):
    rec = json.loads(line)
    if list(rec) != KEYS:
        print("scenario_smoke.sh: serve JSONL keys drifted:", list(rec),
              file=sys.stderr)
        sys.exit(1)
    count += 1
if count == 0:
    print("scenario_smoke.sh: serve JSONL is empty", file=sys.stderr)
    sys.exit(1)
print(f"serve JSONL schema ok ({count} answer records)")
EOF

  # Chaos leg: a lane outage mid-run must surface as kInconsistent answers
  # at the degraded nodes (the model's honest "cannot say"), and the same
  # nodes must answer definitively once the network re-converges.
  : > "$TMP/chaos.script"
  for v in $(seq 0 15); do
    echo "@5 query $v edge $v:$(( (v + 1) % 16 ))" >> "$TMP/chaos.script"
  done
  for v in $(seq 0 15); do
    echo "@80 query $v edge $v:$(( (v + 1) % 16 ))" >> "$TMP/chaos.script"
  done
  # Both slots of the 2-lane grid: every round of this 16-node run sits
  # under the inline cutoff, and an inline round stages into the same
  # slots a forked one would, so killing slot 1 must degrade nodes too.
  # (Churn alone also yields kInconsistent answers, so the round records
  # are what prove the outage bit.)
  for kill_lane in 0 1; do
    "$SERVE" --scenario 'churn(n=16, rounds=30, seed=9)' --threads 2 \
      --faults "chaos(seed=7, kill_lane=$kill_lane, kill_from=3, kill_until=6)" \
      --requests "$TMP/chaos.script" --answers "$TMP/ans_chaos.txt" \
      --telemetry "$TMP/serve_chaos.jsonl" 2> "$TMP/serve_chaos.err"
    grep -q '^settled:    yes' "$TMP/serve_chaos.err" || {
      echo "scenario_smoke.sh: chaos serve run (kill_lane=$kill_lane) did not re-converge" >&2
      cat "$TMP/serve_chaos.err" >&2
      exit 1
    }
    grep -q '"degraded_nodes":[1-9]' "$TMP/serve_chaos.jsonl" || {
      echo "scenario_smoke.sh: the kill_lane=$kill_lane outage degraded no node" >&2
      exit 1
    }
    during=$(grep -c 'round=5 .*answer=inconsistent' "$TMP/ans_chaos.txt" || true)
    after=$(grep -c 'round=80 .*answer=inconsistent' "$TMP/ans_chaos.txt" || true)
    if [[ "$during" -eq 0 ]]; then
      echo "scenario_smoke.sh: no kInconsistent answer during the kill_lane=$kill_lane outage" >&2
      cat "$TMP/ans_chaos.txt" >&2
      exit 1
    fi
    if [[ "$after" -ne 0 ]]; then
      echo "scenario_smoke.sh: still answering kInconsistent after re-convergence (kill_lane=$kill_lane)" >&2
      cat "$TMP/ans_chaos.txt" >&2
      exit 1
    fi
    echo "chaos serve leg ok (kill_lane=$kill_lane): $during inconsistent answer(s) during the outage, 0 after"
  done
else
  echo "scenario_smoke.sh: dynsub_serve not built at $SERVE; skipping serve leg" >&2
fi

if [[ -n "${SMOKE_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  cp "$TMP/trace.json" "$SMOKE_ARTIFACT_DIR/chrome_trace.json"
  cp "$TMP/tel_a.jsonl" "$SMOKE_ARTIFACT_DIR/telemetry_rounds.jsonl"
  if [[ -f "$TMP/serve_a.jsonl" ]]; then
    cp "$TMP/serve_a.jsonl" "$SMOKE_ARTIFACT_DIR/serve_answers.jsonl"
  fi
  echo "telemetry artifacts copied to $SMOKE_ARTIFACT_DIR"
fi

echo "== replay validation failures are loud =="
# A replay whose CLI flags or header disagree with the trace must exit 1
# with a message, never run a mismatched simulation -- in both tools,
# which share one trace reader and one session opener.  The intact trace
# replays first, so a refusal is the bad input's doing.
sed 's/^# n=.*/# n=banana/' "$TMP/t.trace" > "$TMP/corrupt.trace"
sed 's/^# n=.*/# n=2/' "$TMP/t.trace" > "$TMP/small.trace"
refuses_bad_replays() {  # refuses_bad_replays NAME CMD...
  local name="$1"
  shift
  "$@" --replay "$TMP/t.trace" > /dev/null 2>&1 || {
    echo "scenario_smoke.sh: $name: the intact trace should replay" >&2
    exit 1
  }
  local code
  for bad in "--replay $TMP/t.trace --n 99999" "--replay $TMP/corrupt.trace" \
             "--replay $TMP/small.trace"; do
    code=0
    # shellcheck disable=SC2086  # $bad is split into flags on purpose
    "$@" $bad > /dev/null 2>&1 || code=$?
    if [[ "$code" -ne 1 ]]; then
      echo "scenario_smoke.sh: $name $bad: want exit 1, got $code" >&2
      exit 1
    fi
  done
  echo "$name: replay mismatches fail loudly"
}
refuses_bad_replays dynsub_run "$BIN"
if [[ -x "$SERVE" ]]; then
  refuses_bad_replays dynsub_serve "$SERVE" --requests "$TMP/req.script"
fi

echo "scenario_smoke.sh: $count scenario(s), $dcount detector(s), $ccount chaos scenario(s) ran clean"
