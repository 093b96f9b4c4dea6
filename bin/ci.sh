#!/bin/sh
# Repository CI gate: full build + the tier-1 test suite + a chaos smoke.
#
# The torture smoke runs the first 25 seeds of the pinned corpus (the
# same block test_chaos.exe pins); widen with e.g. CHAOS_SEEDS=200 to
# match the nightly sweep.
set -eu
cd "$(dirname "$0")/.."

# run_twice NAME WHAT ARGS...: run `dmtcp_sim ARGS` twice into
# _artifacts/NAME_1.txt and NAME_2.txt, fail naming WHAT unless the two
# outputs are byte-identical, then print the first.
run_twice() {
  name=$1 what=$2
  shift 2
  dune exec bin/dmtcp_sim.exe -- "$@" > "_artifacts/${name}_1.txt"
  dune exec bin/dmtcp_sim.exe -- "$@" > "_artifacts/${name}_2.txt"
  if ! diff -u "_artifacts/${name}_1.txt" "_artifacts/${name}_2.txt"; then
    echo "FAIL: $what is non-deterministic across two runs." >&2
    exit 1
  fi
  cat "_artifacts/${name}_1.txt"
}

echo "== dune build @check =="
dune build @check

echo "== dune runtest =="
# Informational only, no gate: ROADMAP tracks Tier-1 wall time.  Dune
# caches passing suites, so a run with nothing rebuilt reads near 0 s.
tier1_start=$(date +%s)
dune runtest
echo "tier-1 wall: $(( $(date +%s) - tier1_start )) s"
# Also informational: the ROADMAP's design-quality metric, every line
# of every file under lib/, bin/ and bench/.
echo "lib+bin+bench lines: $(find lib bin bench -type f -exec cat {} + | wc -l | tr -d ' ')"

# The fixed traced checkpoint/kill/restart cycle, run twice per flag
# set and required to be byte-identical each time:
#   (none)         the base scenario
#   --incremental  forked + incremental: three checkpoints chain two
#                  deltas onto a full image, so the restart resolves a
#                  depth-2 chain
#   --lazy         demand-paged restore: residency moves modeled time
#                  only, never page contents
#   --plugins      every heuristic plugin on: plugin/<name>/<site> spans
#                  join the stream in registration order
for flags in "" --incremental --lazy --plugins; do
  echo "== trace determinism: ${flags:-base} scenario, two runs, byte-identical =="
  # $flags is unquoted on purpose: the empty set must pass no argument
  dune exec bin/dmtcp_sim.exe -- trace $flags --check-determinism
done

echo "== plugin smoke: registry listing + heuristic verdict diff =="
# Each heuristic scenario must change its verdict when its plugin is
# enabled: blacklisted DNS degrades instead of staying live, the /proc
# fd reads the restarted pid instead of a stale one, the NSCD app
# detects the zeroed segment instead of trusting resurrected cache.
mkdir -p _artifacts
dune exec bin/dmtcp_sim.exe -- plugins ls
dune exec bin/dmtcp_sim.exe -- plugins run > _artifacts/plugins_on.txt
dune exec bin/dmtcp_sim.exe -- plugins run --off > _artifacts/plugins_off.txt
cat _artifacts/plugins_on.txt
if diff -q _artifacts/plugins_on.txt _artifacts/plugins_off.txt > /dev/null; then
  echo "FAIL: heuristic verdicts identical with plugins on and off." >&2
  exit 1
fi
grep -q "degraded" _artifacts/plugins_on.txt || { echo "FAIL: blacklist/extshm did not degrade with plugins on." >&2; exit 1; }
grep -q "PROC OK" _artifacts/plugins_on.txt || { echo "FAIL: proc-fd did not re-point with plugins on." >&2; exit 1; }
grep -q "dns:1200 live" _artifacts/plugins_off.txt || { echo "FAIL: dns pair did not stay live with plugins off." >&2; exit 1; }
grep -q "PROC STALE" _artifacts/plugins_off.txt || { echo "FAIL: /proc fd unexpectedly fresh with plugins off." >&2; exit 1; }

echo "== store smoke: catalog verify over the canned two-generation scenario =="
dune exec bin/dmtcp_sim.exe -- store verify

echo "== bench smoke: deterministic ratio records, bounds and baseline =="
# Emits the machine-readable artifact, checks that it parses as JSON,
# enforces every BENCH_ASSERT bound (compression shape, store dedup,
# delta size, fast-path margins), then checks that the ratio records
# still match the committed baseline.  The artifact's last record has
# no trailing comma, so both sides drop one before the diff.
# Cost: ~140 s host on a 2-vCPU VM, nearly all in the record builders:
# restore_records 106 s, plugin_records 25 s, sched1k_records 4 s,
# every other builder under 1 s.
mkdir -p _artifacts
BENCH_ASSERT=1 BENCH_JSON=_artifacts/bench_micro.json dune exec bench/main.exe > /dev/null
python3 -m json.tool _artifacts/bench_micro.json > /dev/null \
  || { echo "FAIL: _artifacts/bench_micro.json is not valid JSON." >&2; exit 1; }
grep '"kind": "ratio"' _artifacts/bench_micro.json | sed 's/,$//' > _artifacts/bench_ratios.json
if ! sed 's/,$//' BENCH_micro.json | diff -u - _artifacts/bench_ratios.json; then
  echo "FAIL: deterministic bench ratios diverged from BENCH_micro.json." >&2
  echo "If the encoder change is intentional, refresh the baseline with:" >&2
  echo "  cp _artifacts/bench_ratios.json BENCH_micro.json" >&2
  exit 1
fi
echo "bench ratios match committed BENCH_micro.json"

echo "== sched smoke: canned preempt/fail/drain scenario, deterministic trace digest =="
# The canned three-job scenario exercises one preemption, one node loss
# and one drain, and must (a) finish every job bit-identical to its
# no-fault reference and (b) produce a byte-identical trace across two
# invocations.
run_twice sched_run "sched scenario" sched run

echo "== sched scale smoke: 1000-job demo under chaos, deterministic =="
# 1000 single-node jobs through preemption + node loss + drain on the
# per-job op queues: every job must finish bit-identical to the
# no-fault reference, at least 8 ops must overlap in flight, and two
# invocations must print byte-identical summaries.
run_twice sched_demo1k "1000-job demo" sched demo1k

echo "== mpi proxy smoke: stencil ckpt/restart cycle on the proxy backend, deterministic =="
# The rank/proxy split: checkpoint the stencil mid-run on the proxy
# backend, kill, restart from the images and run out.  Two invocations
# must print byte-identical result/image-shape/trace-digest lines, and
# the rank images must carry no live socket state and nothing drained —
# that is the point of the split.
run_twice mpi_proxy "proxy-backend mpi cycle" mpi run proxy
grep -q "0 established socket spec(s), 0 drained byte(s)" _artifacts/mpi_proxy_1.txt \
  || { echo "FAIL: proxy-backend rank images carry socket state." >&2; exit 1; }

echo "== chaos smoke: 25-seed torture + 25-seed scheduler corpus =="
dune exec bin/dmtcp_sim.exe -- torture --seeds "${CHAOS_SEEDS:-25}"
dune exec bin/dmtcp_sim.exe -- sched chaos

echo "CI OK"
