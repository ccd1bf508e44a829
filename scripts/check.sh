#!/bin/sh
# One-shot health check: the full test suite, then a profbench
# correctness smoke (each of the four workloads run for one second with
# tracing on: no Rejected responses, Churn.check after each pass, traced
# responses identical to untraced ones, exact attacks untruncated and
# never below greedy) and one 10 s run of each workload held to its
# pinned response digest (a codec byte slip on any serve shape, or a
# moved greedy pick, fails here), then the CLI gates: a telemetry smoke
# (--metrics must carry the placement/v1 envelope and the B&B
# statistics), the exact-attack -j1 ≡ -j4 diff, ten exact node and
# domain attacks pinned in scripts/exact_attacks.expected at -j1 and
# -j4, and the search counters with their -j1 ≡ -j4 values, a
# topology smoke (rack adversary vs node adversary sanity inequality),
# a churn smoke (a 10^4-event seeded trace replayed
# through the continuous engine, diffed byte-for-byte against the
# pinned envelope in scripts/churn_smoke.expected, a 6000-event trace
# at n=1000, k=8 against scripts/churn_n1000.expected, and two with
# node leaves and rejoins against scripts/churn_membership.expected
# and, at n=1000, scripts/churn_n1000_membership.expected),
# the serve gates
# (a fixed event+query script answered over stdin must be
# byte-identical to the batch churn --responses replay, a SIGTERM
# mid-session must still flush a summary envelope naming the signal,
# and a 1 MiB request line must be refused inline without ending the
# session), and the dst gates
# (a pinned multi-seed simulation sweep with fault injection armed must
# hold every invariant bit-identically at -j1 and -j4, and a
# deliberately broken canary must shrink to a <= 25-event repro that
# replays to the same violation), and last the paper-artefact gate
# (bench/main.exe -j 2 all must rewrite results/ byte for byte; about
# two and a half minutes on a 2-core machine).
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

# Pinned digests: the 1 s runs above skip the digest check, so each
# workload also runs at the pinned seed and length and must reproduce
# its pinned response digest (profbench exits non-zero when it moves).
# The serve workloads hash every response line, so any codec byte slip
# fails here; attack hashes the greedy picks at scale (k=16 on n=10^4,
# b=10^6) plus the exact and domain searches.
for workload in ingest outage worst_query attack; do
  dune exec --root . ./profbench/main.exe -- profile "$workload" --seed 1 \
    --seconds 10 ||
    { echo "check.sh: profbench $workload at the pinned seed diverged from its pinned digest" >&2; exit 1; }
done

metrics=$(dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 3 --metrics -)
echo "$metrics" | grep -q '"schema": "placement/v1"' ||
  { echo "check.sh: --metrics output missing placement/v1 envelope" >&2; exit 1; }
echo "$metrics" | grep -q '"core/adversary/bb/nodes_expanded"' ||
  { echo "check.sh: --metrics output missing B&B search statistics" >&2; exit 1; }

# Search -j determinism on the CLI path: the same exact attack must
# be byte-identical at -j1 and -j4 (pruning reads a shared incumbent,
# but the (value, lexicographic) merge pins the reported set).
dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 4 -j1 > attack_j1.out
dune exec bin/placement_tool.exe -- attack --strategy combo \
  -n 31 -b 600 -r 3 -s 2 -k 4 -j4 > attack_j4.out
cmp attack_j1.out attack_j4.out ||
  { echo "check.sh: exact attack output differs between -j1 and -j4" >&2; exit 1; }
rm -f attack_j1.out attack_j4.out

# Exact answers beyond profbench: node attacks and --topology domain
# attacks (racks holding 2+ replicas of one object under a random
# placement), s = 2 and 3, r = 3 and 4, every one small enough for the
# exact path.  The reports, winning sets included, must match the
# pinned scripts/exact_attacks.expected at -j1 and at -j4.
exact_attacks() {
  while read -r args; do
    echo "# attack $args"
    # shellcheck disable=SC2086 # $args is a list of options
    _build/default/bin/placement_tool.exe attack $args -j"$1"
  done <<'EOF'
--random 30,300,3,1 -s 2 -k 5
--random 28,400,4,2 -s 3 -k 5
--random 26,300,4,3 -s 2 -k 5
--random 30,500,3,4 -s 3 -k 6
--random 32,600,3,6 -s 2 -k 5 --topology rack:16/node:2 --fail-domains 5
--random 36,600,4,7 -s 3 -k 4 --topology rack:12/node:3 --fail-domains 4
--random 36,600,3,8 -s 3 -k 4 --topology rack:12/node:3 --fail-domains 5
--random 40,800,4,9 -s 2 -k 3 --topology rack:20/node:2 --fail-domains 6
--random 48,900,4,11 -s 3 -k 3 --topology rack:24/node:2 --fail-domains 6
--strategy simple -n 31 -b 155 -r 3 -s 2 -k 4 --topology rack:31/node:1 --fail-domains 4
EOF
}
for jobs in 1 4; do
  exact_attacks "$jobs" > exact_attacks.out
  diff scripts/exact_attacks.expected exact_attacks.out ||
    { echo "check.sh: exact attacks at -j$jobs diverged from scripts/exact_attacks.expected" >&2; exit 1; }
done
rm -f exact_attacks.out

# Search telemetry: on an instance whose search expands past the root
# (a random layout: on the Combo design of the same shape the counting
# bound proves the greedy seed optimal at the root), the --metrics
# envelope must carry the node and prune counts, and its deterministic
# "values" section must be identical at -j1 and -j4.
bb_values() {
  dune exec bin/placement_tool.exe -- attack --strategy random \
    -n 71 -b 2400 -r 3 -s 2 -k 3 -j"$1" --metrics bb_metrics.json > /dev/null
  for counter in 'core/adversary/bb/nodes_expanded' 'core/adversary/bb/bound_prunes'; do
    grep -q "\"$counter\"" bb_metrics.json ||
      { echo "check.sh: --metrics output missing $counter" >&2; exit 1; }
  done
  sed -n '/"values"/,/"timings"/{/"timings"/!p;}' bb_metrics.json
}
bb_values 1 > bb_values_j1.txt
bb_values 4 > bb_values_j4.txt
cmp bb_values_j1.txt bb_values_j4.txt ||
  { echo "check.sh: --metrics values differ between -j1 and -j4" >&2; exit 1; }
rm -f bb_metrics.json bb_values_j1.txt bb_values_j4.txt

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

# Churn at profbench's engine shape: the smoke above runs at n=50, k=3;
# this 6000-event trace at n=1000, k=8 (profbench's unit count and
# query size) pins the worst-case adversary, re-scored after every
# event, through worst_available and min_worst_available.
dune exec bin/placement_tool.exe -- churn -n 1000 -r 3 -s 2 -k 8 \
  --seed 1 --count 6000 --measure-every 1000 --json > churn_n1000.json
diff scripts/churn_n1000.expected churn_n1000.json ||
  { echo "check.sh: churn n=1000 run diverged from the pinned envelope (scripts/churn_n1000.expected)" >&2; exit 1; }
rm -f churn_n1000.json

# Churn membership gate: the smoke above has no leave or join, so it
# never routes around blocked blocks.  A 2*10^4-event trace with
# permanent leaves and rejoins (~650 of each) must reproduce the pinned
# envelope byte for byte as well.
dune exec bin/placement_tool.exe -- churn -n 40 -r 3 -s 2 -k 3 \
  --seed 3 --count 20000 --measure-every 1000 --join-weight 4 \
  --leave-weight 4 --json > churn_membership.json
diff scripts/churn_membership.expected churn_membership.json ||
  { echo "check.sh: churn membership run diverged from the pinned envelope (scripts/churn_membership.expected)" >&2; exit 1; }
rm -f churn_membership.json

# Membership at profbench's engine shape: the gate above runs on the
# Bose STS(39); this 6000-event trace at n=1000 (203 leaves and 198
# joins) retires and rejoins nodes of the Bose STS(999), so a leave or
# join that finds the wrong blocks through the node -> blocks index
# moves the pinned envelope.
dune exec bin/placement_tool.exe -- churn -n 1000 -r 3 -s 2 -k 8 \
  --seed 2 --count 6000 --measure-every 1000 --join-weight 4 \
  --leave-weight 4 --json > churn_n1000_membership.json
diff scripts/churn_n1000_membership.expected churn_n1000_membership.json ||
  { echo "check.sh: churn n=1000 membership run diverged from the pinned envelope (scripts/churn_n1000_membership.expected)" >&2; exit 1; }
rm -f churn_n1000_membership.json

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

# Paper artefacts: every table and figure bench/main.exe writes must
# match the committed results/ byte for byte, so an adversary or
# experiment change that moves a published number fails here until
# results/ is regenerated (bench/main.exe all --out results/).
results_out=$(mktemp -d results_check.XXXXXX)
_build/default/bench/main.exe -j 2 all --out "$results_out" > /dev/null
diff -r results "$results_out" ||
  { echo "check.sh: bench/main.exe all diverged from results/ (see $results_out)" >&2; exit 1; }
rm -rf "$results_out"

echo "check.sh: all good"
