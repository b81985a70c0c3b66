#!/bin/sh
# Tier-1 gate: full build, the 23 test suites, a benchmark smoke run, a
# self-tracing smoke test (Chrome + Jaeger exports re-parsed via Jsonx), a
# sampled-profiler smoke test, three `ditto_cli scenario` smokes (a
# kill-mid-tier run: fault injection, resilience counters, windowed
# telemetry, transient-fidelity scorecard and OpenMetrics export; a
# steady run: critical-path divergence and a Jaeger round-trip; a flash
# crowd: autoscaling and admission control fired on both sides), a synth
# scaling smoke (100-tier generated graph cloned + validated under a wall
# budget), a traced surge-memcached perfbench run (its output and
# determinism checks, and a bound on the live event heap), and the
# fidelity regression gate (scorecard and scenario keys diffed against
# the committed baseline, plus a proof that the gate rejects a perturbed
# baseline).
# Usage: bin/ci.sh   (from the repo root; DITTO_DOMAINS caps the pool)
set -eu

cd "$(dirname "$0")/.."

# All scratch files live in one tmpdir removed on any exit, so a failing
# step cannot leave stray trace/profile files behind.
tmpdir=$(mktemp -d /tmp/ditto_ci.XXXXXX)
trap 'rm -rf "$tmpdir"' EXIT INT TERM

echo "== dune build =="
build_log="$tmpdir/build.log"
dune build 2>&1 | tee "$build_log"
# lib/obs, lib/report and lib/fault are the observability and chaos
# layers; lib/util, lib/uarch, lib/tune and bench carry the performance
# architecture (pool futures, memo caches, machine pooling, the bench
# DAG); lib/sim, lib/app, lib/apps, lib/gen and lib/trace carry the
# topology-synthesis scaling path; lib/core and lib/net carry the
# pipeline and the socket layer the request-trace context rides on;
# lib/loadgen carries the arrival-rate profiles the surge path samples;
# lib/isa, lib/os and lib/profile carry the instruction templates, the
# page cache and the profile stage the measurement hot path runs through.
# Keep them all warning-clean.
if grep -i "warning" "$build_log" | grep -qE "lib/(obs|report|fault|util|uarch|tune|sim|app|apps|gen|trace|core|net|loadgen|isa|os|profile)|bench/|bin/"; then
  echo "ci: FAIL — build warnings in the gated modules" >&2
  exit 1
fi

echo "== dune runtest =="
dune runtest

echo "== bench smoke (micro kernels) =="
dune exec bench/main.exe -- micro

echo "== perf smoke (warm measurement memo beats the cold run) =="
# perfsmoke clones redis once, then validates the same cell twice through
# the runner: the second pass must be served by the measurement-phase memo
# and come back faster. The experiment prints PERF-SMOKE-OK/FAIL.
perf_log="$tmpdir/perfsmoke.log"
dune exec bench/main.exe -- perfsmoke | tee "$perf_log"
if ! grep -q "PERF-SMOKE-OK" "$perf_log"; then
  echo "ci: FAIL — warm-memo run was not faster than the cold run" >&2
  exit 1
fi

echo "== trace smoke (ditto_cli --trace, re-parsed with Jsonx) =="
trace_file="$tmpdir/trace.json"
dune exec bin/ditto_cli.exe -- run redis --qps 2000 --trace "$trace_file"
dune exec bin/ditto_cli.exe -- inspect-trace "$trace_file"
dune exec bin/ditto_cli.exe -- inspect-trace "$trace_file.jaeger.json"
rm -f "$trace_file" "$trace_file.jaeger.json"

echo "== profile smoke (collapsed stacks reconcile with measured CPU) =="
# `profile` exits non-zero itself if the sampled weights diverge >1% from
# the measured on-CPU time.
dune exec bin/ditto_cli.exe -- profile redis --out "$tmpdir/redis.folded" --top 5
test -s "$tmpdir/redis.folded"

echo "== chaos + timeline smoke (kill-mid-tier on memcached) =="
# The crash plan must actually exercise the resilience machinery: the
# post-restart backlog sheds requests and the client retry budget is spent,
# so both counters in the greppable totals line must be non-zero — and the
# command itself must exit cleanly. The same run carries windowed
# telemetry: it must print the greppable TIMELINE-SMOKE-OK line with a
# strictly positive reconvergence time (a fault fired, so by construction
# reconvergence is at least the remainder of the fault window), and the
# OpenMetrics export must be a complete document (ends with # EOF).
chaos_log="$tmpdir/chaos.log"
om_file="$tmpdir/timeline.om"
dune exec bin/ditto_cli.exe -- scenario memcached --plan kill-mid-tier --no-tune \
  --openmetrics "$om_file" | tee "$chaos_log"
awk '
  /^chaos-totals:/ {
    seen = 1
    shed = retries = -1
    for (i = 1; i <= NF; i++) {
      if ($i ~ /^shed=/)    { sub(/^shed=/, "", $i);    shed = $i + 0 }
      if ($i ~ /^retries=/) { sub(/^retries=/, "", $i); retries = $i + 0 }
    }
    if (shed <= 0 || retries <= 0) {
      printf "ci: FAIL — chaos counters did not fire (shed=%d retries=%d)\n", shed, retries > "/dev/stderr"
      exit 1
    }
  }
  END { if (!seen) { print "ci: FAIL — no chaos-totals line" > "/dev/stderr"; exit 1 } }
' "$chaos_log"
if ! grep -q "TIMELINE-SMOKE-OK" "$chaos_log"; then
  echo "ci: FAIL — timeline smoke did not reach TIMELINE-SMOKE-OK" >&2
  exit 1
fi
if ! grep -Eq 'reconverge_ms=[1-9][0-9]*' "$chaos_log"; then
  echo "ci: FAIL — reconvergence time not strictly positive under a fault plan" >&2
  exit 1
fi
if ! grep -q '^# EOF' "$om_file"; then
  echo "ci: FAIL — OpenMetrics export incomplete (no # EOF terminator)" >&2
  exit 1
fi

echo "== synth scaling smoke (100-tier generated graph, clone + validate) =="
# A seeded 100-tier production-shaped graph must round-trip through Jaeger
# (generate -> export -> recover DAG -> shape check), then clone and
# validate end-to-end inside a wall budget. The command prints the
# greppable SYNTH-SMOKE-OK line and exits non-zero if the recovered DAG
# does not match the generator's ground truth.
synth_log="$tmpdir/synth.log"
synth_start=$(date +%s)
dune exec bin/ditto_cli.exe -- synth synth-100 --no-tune | tee "$synth_log"
synth_wall=$(( $(date +%s) - synth_start ))
if ! grep -q "SYNTH-SMOKE-OK" "$synth_log"; then
  echo "ci: FAIL — synth smoke did not reach SYNTH-SMOKE-OK" >&2
  exit 1
fi
if [ "$synth_wall" -gt 240 ]; then
  echo "ci: FAIL — synth smoke took ${synth_wall}s (budget 240s)" >&2
  exit 1
fi

echo "== critpath smoke (critical-path divergence + Jaeger round-trip) =="
# A steady run on redis (request tracing is on in every scenario run): the
# command must print a top divergence
# row (CRITPATH worst=...) and the greppable CRITPATH-SMOKE-OK line, and
# the Jaeger export of the sampled traces must re-ingest cleanly through
# inspect-trace (non-empty roots report, client entry tier in the DAG).
critpath_log="$tmpdir/critpath.log"
critpath_jaeger="$tmpdir/critpath.jaeger.json"
dune exec bin/ditto_cli.exe -- scenario redis --no-tune --jaeger "$critpath_jaeger" | tee "$critpath_log"
if ! grep -q "CRITPATH-SMOKE-OK" "$critpath_log"; then
  echo "ci: FAIL — critpath smoke did not reach CRITPATH-SMOKE-OK" >&2
  exit 1
fi
if ! grep -Eq 'CRITPATH worst=[^ ]+/[^ ]+ err_pp=' "$critpath_log"; then
  echo "ci: FAIL — critpath smoke printed no top divergence row" >&2
  exit 1
fi
inspect_log="$tmpdir/critpath.inspect.log"
dune exec bin/ditto_cli.exe -- inspect-trace "$critpath_jaeger" | tee "$inspect_log"
if ! grep -Eq '[1-9][0-9]* root\(s\)' "$inspect_log"; then
  echo "ci: FAIL — Jaeger export re-ingest found no trace roots" >&2
  exit 1
fi
if ! grep -q 'client' "$inspect_log"; then
  echo "ci: FAIL — Jaeger export re-ingest lost the client entry tier" >&2
  exit 1
fi

echo "== surge smoke (flash crowd on memcached, autoscaling + shedding fired) =="
# An open-loop flash-crowd profile with autoscaling armed must actually
# exercise the overload machinery on both sides: at least one scale-out
# event fired, the admission controller shed a non-zero number of
# requests, and the spike left a strictly positive reconvergence time in
# the transient scorecard — and the command must exit cleanly with the
# greppable SURGE-SMOKE-OK line.
surge_log="$tmpdir/surge.log"
dune exec bin/ditto_cli.exe -- scenario memcached --profile flash-crowd --no-tune | tee "$surge_log"
if ! grep -q "SURGE-SMOKE-OK" "$surge_log"; then
  echo "ci: FAIL — surge smoke did not reach SURGE-SMOKE-OK" >&2
  exit 1
fi
if ! grep -Eq 'scale_out_events=[1-9]' "$surge_log"; then
  echo "ci: FAIL — autoscaler never scaled out under the flash crowd" >&2
  exit 1
fi
if ! grep -Eq 'shed_total=[1-9]' "$surge_log"; then
  echo "ci: FAIL — admission control shed nothing under the flash crowd" >&2
  exit 1
fi
if ! grep -Eq 'reconverge_ms=[1-9][0-9]*' "$surge_log"; then
  echo "ci: FAIL — reconvergence time not strictly positive under the surge" >&2
  exit 1
fi

echo "== perfbench surge (shed/autoscale output checks + traced determinism) =="
# The surge-memcached benchmark workload, traced: its output checks
# (shedding fired, scale events within [1, 4] replicas) and its check that
# the untraced and traced runs of one seed agree exactly on fidelity and
# simulated counts must pass, or run.py exits non-zero. run.py refuses to
# start while DITTO_DOMAINS or DITTO_MEMO is set, so both are unset here.
# Its JSON line also gates the event heap: timed waits beaten by traffic
# are withdrawn, so the heap holds only live events (a few hundred on this
# seed; ~28.5k when every dead timeout stayed queued until it expired).
# The count is deterministic per seed.
perfbench_json="$tmpdir/perfbench_surge.json"
env -u DITTO_DOMAINS -u DITTO_MEMO python3 perfbench/run.py --workload surge-memcached \
  --seed 1 --seconds 10 --trace 1 > "$perfbench_json"
cat "$perfbench_json"
python3 - "$perfbench_json" <<'PY'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.startswith("{")]
peak = json.loads(lines[-1])["metrics"]["sim.peak_heap_events"]["value"]
if peak > 1000:
    sys.exit("ci: FAIL — sim.peak_heap_events %d > 1000: dead timers are piling up" % peak)
print("sim.peak_heap_events %d <= 1000" % peak)
PY

echo "== scorecard + scenario regression gate (vs bench/baselines/default.json) =="
# The steady scorecards plus the 48 scenario keys (chaos, timeline,
# critpath, surge) of redis and memcached; a baseline key the run should
# have produced but did not fails the gate too.
bench_json="$tmpdir/bench.json"
dune exec bench/main.exe -- scorecards scenarios --apps redis,memcached --json "$bench_json" --check

echo "== regression gate rejects a perturbed baseline =="
# Lower one baseline entry to -100%: any non-negative current error now
# exceeds baseline + tolerance, so --check-json must fail.
bad_baseline="$tmpdir/bad_baseline.json"
sed 's/"scorecards\/redis\/redis\/l1i": [-0-9.eE+]*/"scorecards\/redis\/redis\/l1i": -100.0/' \
  bench/baselines/default.json > "$bad_baseline"
if ! grep -q -- '-100.0' "$bad_baseline"; then
  echo "ci: FAIL — could not perturb the baseline (key missing?)" >&2
  exit 1
fi
if dune exec bench/main.exe -- --check-json "$bench_json" --baseline "$bad_baseline"; then
  echo "ci: FAIL — regression gate accepted a perturbed baseline" >&2
  exit 1
fi
echo "(rejected, as intended)"

echo "ci: OK"
