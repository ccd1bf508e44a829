#!/bin/sh
# One-shot health check: the full test suite, then a profbench
# correctness smoke (each of the four workloads run for one second with
# tracing on: no Rejected responses, Churn.check after each pass, traced
# responses identical to untraced ones, exact attacks untruncated and
# never below greedy), then the CLI gates: a telemetry smoke (--metrics
# must carry the placement/v1 envelope and the B&B statistics), the
# exact-attack -j1 ≡ -j4 diff and the frontier counters, a topology
# smoke (rack adversary vs node adversary sanity inequality), a churn
# smoke (a 10^4-event seeded trace replayed through the continuous
# engine, diffed byte-for-byte against the pinned envelope in
# scripts/churn_smoke.expected), the serve gates (a fixed event+query
# script answered over stdin must be byte-identical to the batch churn
# --responses replay, a SIGTERM mid-session must still flush a summary
# envelope naming the signal, and a 1 MiB request line must be refused
# inline without ending the session), and the dst gates
# (a pinned multi-seed simulation sweep with fault injection armed must
# hold every invariant bit-identically at -j1 and -j4, and a
# deliberately broken canary must shrink to a <= 25-event repro that
# replays to the same violation).
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

# Profbench correctness smoke: each workload exits non-zero when any of
# its own checks fails (printed as CHECK FAILED lines); the timings it
# reports are wall-clock and not gated here.
for workload in ingest outage worst_query attack; do
  dune exec --root . ./profbench/main.exe -- profile "$workload" --seed 1 \
    --seconds 1 --trace ||
    { echo "check.sh: profbench $workload reported a correctness failure" >&2; exit 1; }
done

metrics=$(dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 3 --metrics -)
echo "$metrics" | grep -q '"schema": "placement/v1"' ||
  { echo "check.sh: --metrics output missing placement/v1 envelope" >&2; exit 1; }
echo "$metrics" | grep -q '"core/adversary/bb/nodes_expanded"' ||
  { echo "check.sh: --metrics output missing B&B search statistics" >&2; exit 1; }

# Frontier -j determinism on the CLI path: the same exact attack must
# be byte-identical at -j1 and -j4 (pruning reads a shared incumbent,
# but the (value, lexicographic) merge pins the reported set).
dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 4 -j1 > attack_j1.out
dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 4 -j4 > attack_j4.out
cmp attack_j1.out attack_j4.out ||
  { echo "check.sh: exact attack output differs between -j1 and -j4" >&2; exit 1; }
rm -f attack_j1.out attack_j4.out

# Frontier telemetry: on an instance big enough to actually spawn tasks
# (n=71: spawn depth 2 < k), the --metrics envelope must carry the new
# frontier counters — the task count and spawn depth are Stable, the
# node count rides in the volatile section.
bb_metrics=$(dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 71 -b 2400 -r 3 -s 2 -k 3 --metrics -)
for counter in 'core/adversary/bb/spawned_tasks' 'core/adversary/bb/spawn_depth' \
  'core/adversary/bb/nodes_expanded'; do
  echo "$bb_metrics" | grep -q "\"$counter\"" ||
    { echo "check.sh: --metrics output missing $counter" >&2; exit 1; }
done

# Topology smoke: on a regular 4x5 topology the rack adversary (worst 1
# rack = 5 nodes) can never beat the node adversary given the same 5-node
# budget, so its availability must be >= the node adversary's.
topo=$(dune exec bin/placement_tool.exe -- attack --strategy simple \
  -n 20 -b 100 -r 3 -s 2 -k 5 --topology rack:4/node:5 --fail-domains 1)
node_avail=$(echo "$topo" | sed -n 's/^ *available objects: \([0-9]*\) .*/\1/p')
rack_avail=$(echo "$topo" | sed -n 's/^ *available: \([0-9]*\) .*/\1/p')
[ -n "$node_avail" ] && [ -n "$rack_avail" ] && [ "$rack_avail" -ge "$node_avail" ] ||
  { echo "check.sh: topology smoke failed (rack adversary $rack_avail < node adversary $node_avail)" >&2; exit 1; }

# Churn smoke: a 10^4-event seeded trace through the continuous engine,
# with per-event incremental worst-case re-scoring, must reproduce the
# pinned placement/v1 envelope byte for byte (determinism contract:
# same stream, same bytes).
dune exec bin/placement_tool.exe -- churn -n 50 -r 3 -s 2 -k 3 \
  --seed 7 --count 10000 --measure-every 500 --json > churn_smoke.json
diff scripts/churn_smoke.expected churn_smoke.json ||
  { echo "check.sh: churn smoke diverged from the pinned envelope (scripts/churn_smoke.expected)" >&2; exit 1; }
rm -f churn_smoke.json

# Serve gates.  (1) Protocol determinism: a fixed event+query script
# piped into the serve daemon over stdin must answer byte-identically
# to the batch `churn --events FILE --responses` replay — serve and
# batch share one Api path, and this is the contract that keeps them
# honest.
cat > serve_script.txt <<'EOF'
create
create
create
fail 1
query avail
query worst 3
leave 1
query lower-bound
join 1
create
delete 0
query worst
stats
EOF
dune exec bin/placement_tool.exe -- serve -n 12 -r 3 -s 2 -k 2 \
  < serve_script.txt > serve_stdin.out
dune exec bin/placement_tool.exe -- churn -n 12 -r 3 -s 2 -k 2 \
  --events serve_script.txt --responses > serve_batch.out
cmp serve_stdin.out serve_batch.out ||
  { echo "check.sh: serve over stdin diverged from batch churn --responses" >&2; exit 1; }
rm -f serve_script.txt serve_stdin.out serve_batch.out

# (2) Graceful drain: SIGTERM mid-session must still flush a valid
# final summary envelope naming the signal.  The daemon reads from a
# FIFO held open by a sleeping writer, so only the signal can end it.
serve_fifo=$(mktemp -u serve_fifo.XXXXXX)
mkfifo "$serve_fifo"
sleep 5 > "$serve_fifo" &
fifo_holder=$!
_build/default/bin/placement_tool.exe serve -n 8 -r 3 -s 2 -k 2 \
  < "$serve_fifo" > serve_sigterm.out &
serve_pid=$!
sleep 1
kill -TERM "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
kill "$fifo_holder" 2>/dev/null || true
wait "$fifo_holder" 2>/dev/null || true
rm -f "$serve_fifo"
grep -q '"command": "summary"' serve_sigterm.out ||
  { echo "check.sh: SIGTERM drain emitted no summary envelope" >&2; exit 1; }
grep -q '"reason": "signal"' serve_sigterm.out ||
  { echo "check.sh: SIGTERM drain summary does not name the signal" >&2; exit 1; }
rm -f serve_sigterm.out

# (3) Bounded request lines: a 1 MiB line must be refused inline (one
# error envelope) and discarded without ending the session — the stats
# request after it is still answered, and the daemon exits 0.
{ head -c 1048576 /dev/zero | tr '\000' x; printf '\nstats\n'; } |
  _build/default/bin/placement_tool.exe serve -n 8 -r 3 -s 2 -k 2 \
  > serve_overlong.out ||
  { echo "check.sh: serve exited non-zero on an overlong request line" >&2; exit 1; }
[ "$(grep -c '"command": "error"' serve_overlong.out)" -eq 1 ] ||
  { echo "check.sh: an overlong line was not refused by exactly one error envelope" >&2; exit 1; }
[ "$(grep -c '"command": "stats"' serve_overlong.out)" -eq 1 ] ||
  { echo "check.sh: serve stopped answering after an overlong line" >&2; exit 1; }
rm -f serve_overlong.out

# Dst gates.  (1) Pinned seed sweep: 3 seeds x 3 profiles x 4
# strategies (the spread families on the cascade profile's racks)
# through the deterministic simulation harness with fault injection
# armed — every invariant (engine oracle, Lemma-3 lower bound,
# movement budget, in-service placement, replay, per-strategy
# promises) must hold on every step, and the envelope must be
# bit-identical at -j1 and -j4 (per-domain injection arming keeps
# pool-fanned runs deterministic).
dune exec bin/placement_tool.exe -- dst -n 20 --seed 1 --runs 3 \
  --steps 150 --measure-every 50 --profile steady,storm,cascade \
  --strategy combo,simple,simple-spread,random-spread --inject 30 \
  --json -j1 > dst_j1.json ||
  { echo "check.sh: dst sweep reported an invariant violation (see dst_j1.json)" >&2; exit 1; }
dune exec bin/placement_tool.exe -- dst -n 20 --seed 1 --runs 3 \
  --steps 150 --measure-every 50 --profile steady,storm,cascade \
  --strategy combo,simple,simple-spread,random-spread --inject 30 \
  --json -j4 > dst_j4.json ||
  { echo "check.sh: dst sweep reported an invariant violation at -j4" >&2; exit 1; }
cmp dst_j1.json dst_j4.json ||
  { echo "check.sh: dst sweep envelope differs between -j1 and -j4" >&2; exit 1; }
grep -q '"violations": 0' dst_j1.json ||
  { echo "check.sh: dst sweep summary reports violations (see dst_j1.json)" >&2; exit 1; }
rm -f dst_j1.json dst_j4.json

# (2) Shrinker smoke: a deliberately broken canary invariant must
# trip under fault injection, shrink to a repro of at most 25 events,
# and the written repro file must replay to the same violation.
if dune exec bin/placement_tool.exe -- dst -n 20 --seed 7 --steps 150 \
  --measure-every 50 --profile storm --strategy none \
  --break canary/full-availability --inject 25 --shrink \
  --repro dst_repro.events > dst_shrink.out; then
  echo "check.sh: the canary invariant did not trip (see dst_shrink.out)" >&2; exit 1
fi
grep -q 'VIOLATION canary/full-availability' dst_shrink.out ||
  { echo "check.sh: shrinker smoke tripped the wrong invariant (see dst_shrink.out)" >&2; exit 1; }
repro_events=$(grep -vc '^#' dst_repro.events)
[ "$repro_events" -le 25 ] ||
  { echo "check.sh: shrunk repro has $repro_events events > 25 (see dst_repro.events)" >&2; exit 1; }
if dune exec bin/placement_tool.exe -- dst --events dst_repro.events \
  -n 20 --seed 7 --profile storm --strategy none --inject 25 \
  --break canary/full-availability > dst_replay.out; then
  echo "check.sh: the shrunk repro no longer violates on replay" >&2; exit 1
fi
grep -q 'VIOLATION canary/full-availability' dst_replay.out ||
  { echo "check.sh: the repro replays to a different invariant (see dst_replay.out)" >&2; exit 1; }
rm -f dst_repro.events dst_shrink.out dst_replay.out

echo "check.sh: all good"
