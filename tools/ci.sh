#!/bin/sh
# CI entry point: a socket lint (no raw socket/connect/accept outside
# src/net/socket.cpp, no MSG_PEEK watch or sigaction outside src/net/),
# the tier-1 verify line (see ROADMAP.md) with warnings
# promoted to errors, then the full ctest suite (unit + property tests and
# the CLI exit-code smoke test, including solve-batch and pareto), then an
# eval-perf smoke stage (bench_eval_hot_path --quick: SoA batch/delta
# evaluations bit-identity-gated against the scalar path, evals/sec and
# nodes/sec written to BENCH_eval.json), then a
# pipeopt-server smoke stage (live TCP server driven by the client
# subcommand, responses diffed bit-identical against solve-batch --out,
# plus one streamed Pareto sweep diffed against the CLI pareto --out
# file), then a solve-cache smoke stage (the same manifest replayed twice
# against a --cache-entries server: replays must be byte-identical,
# cache-on must match cache-off modulo wall_s, and cache_hits must be
# nonzero), then a pipeopt-router smoke stage (route --spawn fleet:
# byte-identity through the front tier, SIGKILL a shard under traffic and
# assert the supervisor restarts it, SIGTERM drains), then an
# observability smoke stage (a traced --spawn fleet: solve bytes
# diff-identical to the obs-off baseline, span logs parse and cover every
# phase, merged metrics carry fleet quantiles, pipeopt top renders, the
# client's --poll-stats sampler writes timestamped samples), then a
# chaos smoke stage (a --fault-spec seeded campaign against the front
# tier absorbed by client --retries: byte-identical to the clean
# baseline, replayable under the same seed, plus a SIGKILL breaker pass
# asserting the transition counters and breaker_state gauges), then a
# ThreadSanitizer pass over the threaded executor/plan/sweep/server/cache/
# router/obs/resilience subsystems plus the wire fuzz, then an ASan/UBSan
# pass over the fuzz suites and the MIP engine.
#
# The ctest suite runs staged by label (tier1, then the exact-backend
# crosscheck harness, then the fuzz slices), followed by a CLI-level
# backend cross-check: every exact backend forced via `solve --solver`
# must print the same optimum.
#
#   tools/ci.sh [build-dir]
#
# PIPEOPT_WERROR=ON applies -Wall -Wextra -Werror to every target,
# including the src/api/ facade, executor and server layers.
set -eu
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

# Socket lint: src/net/socket.cpp is the one place TCP sockets are opened
# and their options (close-on-exec, TCP_NODELAY) decided. A raw
# socket/connect/accept call anywhere else in the programs or their tests
# would quietly skip them.
RAW_SOCKETS=$(grep -rnE '::(socket|connect|accept4?)\(' src tools bench tests |
    grep -v '^src/net/socket\.cpp:' || true)
[ -z "$RAW_SOCKETS" ] || {
  echo "ci: raw socket calls outside src/net/socket.cpp:" >&2
  echo "$RAW_SOCKETS" >&2
  exit 1
}
# Session lint: net::SessionHost owns the disconnect watch (MSG_PEEK) and
# the signal routing (sigaction) for both tiers; a copy in a tier is how
# the two drifted apart before.
SESSION_COPIES=$(grep -rnE --include='*.[ch]pp' 'MSG_PEEK|sigaction\(' \
    src tools bench tests |
    grep -v '^src/net/' || true)
[ -z "$SESSION_COPIES" ] || {
  echo "ci: session watch or signal code outside src/net/:" >&2
  echo "$SESSION_COPIES" >&2
  exit 1
}

cmake -B "$BUILD_DIR" -S . -DPIPEOPT_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Staged test run, cheapest signal first. The labels partition the suite
# (CMakeLists.txt discovers each slice with a disjoint gtest filter):
#   tier1      everything but the differential/fuzz slices — the verify line
#   crosscheck the exact-backend differential harness (includes the slow
#              200-instance random sweep, labeled crosscheck;slow)
#   fuzz       seeded property fuzz + wire-protocol robustness fuzz
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L crosscheck --output-on-failure -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L fuzz --output-on-failure -j "$(nproc)"

# Backend cross-check through the CLI: every exact backend, forced by name
# via `solve --solver`, must print the same optimum for one Table 1-shaped
# instance (the comparison is on the printed shortest-round-trip value, so
# the bit-exact backends must collide exactly).
CROSS_DIR=$(mktemp -d "${TMPDIR:-/tmp}/pipeopt_crosscheck.XXXXXX")
trap 'rm -rf "$CROSS_DIR"' EXIT
cat > "$CROSS_DIR/cell.txt" <<'PROB'
comm overlap
bandwidth 2
processor P1 static=0.5 speeds=3,6
processor P2 static=1 speeds=6,8
processor P3 static=0 speeds=1,6
app A weight=1 input=1 stages=3:3,2:2,1:0
app B weight=2 input=0 stages=4:1
PROB
BACKENDS="branch-and-bound exact-enumeration mip-branch-cut"
REFERENCE=""
for BACKEND in $BACKENDS; do
  VALUE=$("$BUILD_DIR/pipeopt" "$CROSS_DIR/cell.txt" solve --objective period \
      --solver "$BACKEND" | sed -n 's/^min period = //p')
  [ -n "$VALUE" ] || { echo "ci: $BACKEND produced no value" >&2; exit 1; }
  if [ -z "$REFERENCE" ]; then
    REFERENCE="$VALUE"
  elif [ "$VALUE" != "$REFERENCE" ]; then
    echo "ci: backend disagreement: $BACKEND=$VALUE, reference=$REFERENCE" >&2
    exit 1
  fi
done
rm -rf "$CROSS_DIR"
trap - EXIT
echo "ci: backend cross-check green ($BACKENDS agree on value=$REFERENCE)"

# Eval-perf smoke: the evaluation hot path in quick mode. The bench
# cross-checks every SoA batch/delta evaluation bit-identical against the
# scalar core::evaluate path (exact double equality) and exits nonzero on
# any divergence; the evals/sec and nodes/sec numbers land in
# BENCH_eval.json for trend tracking. The >= 3x delta speedup gate is
# enforced by full (non-quick) runs, where timings are stable.
"$BUILD_DIR/bench_eval_hot_path" --quick --json "$BUILD_DIR/BENCH_eval.json" || {
  echo "ci: eval hot-path bench failed (bit-identity or setup)" >&2; exit 1;
}
[ -s "$BUILD_DIR/BENCH_eval.json" ] || {
  echo "ci: bench_eval_hot_path did not write BENCH_eval.json" >&2; exit 1;
}
echo "ci: eval smoke green ($(cat "$BUILD_DIR/BENCH_eval.json"))"

# Server smoke: start pipeopt-server on an ephemeral port, drive it with
# the client subcommand over a small Table 1-shaped manifest for every
# objective, and require the wire results to be byte-identical to
# solve-batch --out (same wire format; wall time is the one honest field
# stripped before the diff). SIGTERM must drain and exit 0.
SMOKE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/pipeopt_server_smoke.XXXXXX")
trap 'rm -rf "$SMOKE_DIR"' EXIT
BIN="$BUILD_DIR/pipeopt"

cat > "$SMOKE_DIR/hom.txt" <<'PROB'
comm overlap
bandwidth 1
processor P1 static=0 speeds=2
processor P2 static=0 speeds=2
processor P3 static=0 speeds=2
app A weight=1 input=1 stages=3:1,2:1
app B weight=2 input=0 stages=4:1
PROB
cat > "$SMOKE_DIR/het.txt" <<'PROB'
# comm-homogeneous, multi-modal (the paper's motivating shape)
comm no-overlap
alpha 3
bandwidth 2
processor P1 static=0.5 speeds=3,6
processor P2 static=1 speeds=6,8
processor P3 static=0 speeds=1,6
app A weight=1 input=1 stages=3:3,2:2,1:0
app B weight=1 input=0 stages=2:2,6:1,4:1,2:1
PROB
cat > "$SMOKE_DIR/batch.jsonl" <<PROB
{"path": "hom.txt"}
{"path": "het.txt"}
{"path": "hom.txt"}
PROB

"$BIN" serve --port 0 --jobs 2 > "$SMOKE_DIR/server.out" 2>"$SMOKE_DIR/server.err" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SMOKE_DIR/server.out")
  [ -n "$PORT" ] && break
  i=$((i + 1)); sleep 0.1
done
[ -n "$PORT" ] || { echo "ci: server never announced its port" >&2; exit 1; }

for OBJECTIVE in period latency energy; do
  EXTRA=""
  [ "$OBJECTIVE" = energy ] && EXTRA="--period-bounds 100"
  "$BIN" client --port "$PORT" --manifest "$SMOKE_DIR/batch.jsonl" \
      --objective "$OBJECTIVE" $EXTRA > "$SMOKE_DIR/wire.jsonl"
  "$BIN" "$SMOKE_DIR/batch.jsonl" solve-batch --objective "$OBJECTIVE" $EXTRA \
      --out "$SMOKE_DIR/local.jsonl" > /dev/null
  sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/wire.jsonl" > "$SMOKE_DIR/wire.cmp"
  sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/local.jsonl" > "$SMOKE_DIR/local.cmp"
  diff "$SMOKE_DIR/wire.cmp" "$SMOKE_DIR/local.cmp" || {
    echo "ci: server results diverged from solve-batch ($OBJECTIVE)" >&2; exit 1;
  }
done

# Pareto smoke: one sweep streamed over live TCP (client --pareto), then
# the same sweep through the in-process CLI (pareto --out). The wire
# format is identical by design, so after stripping the honest wall_s
# field the two captures must be byte-identical: front points, bounds,
# witness mappings, summary counters and all.
cat > "$SMOKE_DIR/pareto.jsonl" <<PROB
{"path": "het.txt"}
PROB
"$BIN" client --port "$PORT" --manifest "$SMOKE_DIR/pareto.jsonl" --pareto \
    --sweep-bounds 1,2,4,8 --refine 1 > "$SMOKE_DIR/pareto_wire.jsonl"
"$BIN" "$SMOKE_DIR/het.txt" pareto --sweep-bounds 1,2,4,8 --refine 1 \
    --out "$SMOKE_DIR/pareto_local.jsonl" > /dev/null
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/pareto_wire.jsonl" > "$SMOKE_DIR/pareto_wire.cmp"
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/pareto_local.jsonl" > "$SMOKE_DIR/pareto_local.cmp"
diff "$SMOKE_DIR/pareto_wire.cmp" "$SMOKE_DIR/pareto_local.cmp" || {
  echo "ci: streamed pareto front diverged from the CLI sweep" >&2; exit 1;
}

# Cache smoke: replay the same manifest twice against a --cache-entries
# server. The two replays must be byte-identical INCLUDING wall_s (hits
# return the stored result verbatim), the cache-enabled responses must
# equal the cache-disabled server's (modulo wall_s, the one honest field),
# and the stats line must show a nonzero cache_hits counter.
"$BIN" client --port "$PORT" --manifest "$SMOKE_DIR/batch.jsonl" \
    --objective period > "$SMOKE_DIR/off.jsonl"

"$BIN" serve --port 0 --jobs 2 --cache-entries 256 \
    > "$SMOKE_DIR/cache_server.out" 2>"$SMOKE_DIR/cache_server.err" &
CACHE_PID=$!
trap 'kill "$SERVER_PID" "$CACHE_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
CPORT=""
i=0
while [ $i -lt 100 ]; do
  CPORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SMOKE_DIR/cache_server.out")
  [ -n "$CPORT" ] && break
  i=$((i + 1)); sleep 0.1
done
[ -n "$CPORT" ] || { echo "ci: cache server never announced its port" >&2; exit 1; }

"$BIN" client --port "$CPORT" --manifest "$SMOKE_DIR/batch.jsonl" \
    --objective period > "$SMOKE_DIR/replay1.jsonl"
"$BIN" client --port "$CPORT" --manifest "$SMOKE_DIR/batch.jsonl" \
    --objective period > "$SMOKE_DIR/replay2.jsonl"
diff "$SMOKE_DIR/replay1.jsonl" "$SMOKE_DIR/replay2.jsonl" || {
  echo "ci: cache replay was not byte-identical (wall_s included)" >&2; exit 1;
}
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/off.jsonl" > "$SMOKE_DIR/off.cmp"
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/replay1.jsonl" > "$SMOKE_DIR/replay1.cmp"
diff "$SMOKE_DIR/off.cmp" "$SMOKE_DIR/replay1.cmp" || {
  echo "ci: cache-enabled responses diverged from the cache-disabled server" >&2; exit 1;
}
printf '{"type":"stats"}\n' | "$BIN" client --port "$CPORT" - \
    > "$SMOKE_DIR/cache_stats.jsonl"
HITS=$(sed -n 's/.*"cache_hits":"\([0-9]*\)".*/\1/p' "$SMOKE_DIR/cache_stats.jsonl")
[ -n "$HITS" ] && [ "$HITS" -gt 0 ] || {
  echo "ci: expected a nonzero cache_hits counter, got '${HITS:-absent}'" >&2; exit 1;
}
kill -TERM "$CACHE_PID"
wait "$CACHE_PID" || { echo "ci: cache server did not drain cleanly on SIGTERM" >&2; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "ci: server did not drain cleanly on SIGTERM" >&2; exit 1; }
echo "ci: server smoke green (3 objectives + 1 pareto sweep bit-identical over TCP; cache replay byte-identical, cache_hits=$HITS)"

# Router smoke: a spawn-mode fleet (route --spawn forks two pipeopt-server
# children and supervises them). Byte-identity through the front tier for
# every objective and a streamed pareto sweep, then the recovery story:
# SIGKILL one shard, drive traffic through the failover path (every
# request must still be answered — the router retries admitted requests on
# the surviving shard), and poll the merged stats until the supervisor has
# respawned the child (restarts >= 1, shards_up back to 2). Post-recovery
# traffic must be byte-identical again. SIGTERM must drain and exit 0.
"$BIN" route --spawn 2 --jobs 2 --health-interval-ms 100 \
    > "$SMOKE_DIR/router.out" 2>"$SMOKE_DIR/router.err" &
ROUTER_PID=$!
trap 'kill "$SERVER_PID" "$CACHE_PID" "$ROUTER_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
RPORT=""
i=0
while [ $i -lt 100 ]; do
  RPORT=$(sed -n 's/.*router listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SMOKE_DIR/router.out")
  [ -n "$RPORT" ] && break
  i=$((i + 1)); sleep 0.1
done
[ -n "$RPORT" ] || { echo "ci: router never announced its port" >&2; exit 1; }

for OBJECTIVE in period latency energy; do
  EXTRA=""
  [ "$OBJECTIVE" = energy ] && EXTRA="--period-bounds 100"
  "$BIN" client --port "$RPORT" --manifest "$SMOKE_DIR/batch.jsonl" \
      --objective "$OBJECTIVE" $EXTRA > "$SMOKE_DIR/routed.jsonl"
  "$BIN" "$SMOKE_DIR/batch.jsonl" solve-batch --objective "$OBJECTIVE" $EXTRA \
      --out "$SMOKE_DIR/local.jsonl" > /dev/null
  sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/routed.jsonl" > "$SMOKE_DIR/routed.cmp"
  sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/local.jsonl" > "$SMOKE_DIR/local.cmp"
  diff "$SMOKE_DIR/routed.cmp" "$SMOKE_DIR/local.cmp" || {
    echo "ci: routed results diverged from solve-batch ($OBJECTIVE)" >&2; exit 1;
  }
done
"$BIN" client --port "$RPORT" --manifest "$SMOKE_DIR/pareto.jsonl" --pareto \
    --sweep-bounds 1,2,4,8 --refine 1 > "$SMOKE_DIR/routed_pareto.jsonl"
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/routed_pareto.jsonl" > "$SMOKE_DIR/routed_pareto.cmp"
diff "$SMOKE_DIR/routed_pareto.cmp" "$SMOKE_DIR/pareto_local.cmp" || {
  echo "ci: routed pareto front diverged from the CLI sweep" >&2; exit 1;
}

# SIGKILL-recovery: murder shard 0 (its pid is in the announce lines),
# immediately push traffic through the failover path, then wait for the
# supervisor to respawn it.
SHARD0_PID=$(sed -n 's/.*shard 0 at [^ ]* pid \([0-9]*\).*/\1/p' "$SMOKE_DIR/router.out")
[ -n "$SHARD0_PID" ] || { echo "ci: router never announced shard 0's pid" >&2; exit 1; }
kill -KILL "$SHARD0_PID"
"$BIN" client --port "$RPORT" --manifest "$SMOKE_DIR/batch.jsonl" \
    --objective period > "$SMOKE_DIR/failover.jsonl" || {
  echo "ci: traffic through the failover path failed" >&2; exit 1;
}
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/failover.jsonl" > "$SMOKE_DIR/failover.cmp"
"$BIN" "$SMOKE_DIR/batch.jsonl" solve-batch --objective period \
    --out "$SMOKE_DIR/local.jsonl" > /dev/null
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/local.jsonl" > "$SMOKE_DIR/local.cmp"
diff "$SMOKE_DIR/failover.cmp" "$SMOKE_DIR/local.cmp" || {
  echo "ci: failover results diverged from solve-batch" >&2; exit 1;
}
RESTARTS=""
i=0
while [ $i -lt 100 ]; do
  printf '{"type":"stats"}\n' | "$BIN" client --port "$RPORT" - \
      > "$SMOKE_DIR/router_stats.jsonl" 2>/dev/null || true
  RESTARTS=$(sed -n 's/.*"restarts":"\([0-9]*\)".*/\1/p' "$SMOKE_DIR/router_stats.jsonl")
  UP=$(sed -n 's/.*"shards_up":"\([0-9]*\)".*/\1/p' "$SMOKE_DIR/router_stats.jsonl")
  [ "${RESTARTS:-0}" -ge 1 ] && [ "${UP:-0}" = 2 ] && break
  i=$((i + 1)); sleep 0.1
done
[ "${RESTARTS:-0}" -ge 1 ] && [ "${UP:-0}" = 2 ] || {
  echo "ci: shard was not respawned (restarts='${RESTARTS:-absent}', shards_up='${UP:-absent}')" >&2
  exit 1
}
# Post-recovery traffic is byte-identical again (the respawned shard
# serves its key range afresh).
"$BIN" client --port "$RPORT" --manifest "$SMOKE_DIR/batch.jsonl" \
    --objective period > "$SMOKE_DIR/recovered.jsonl"
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/recovered.jsonl" > "$SMOKE_DIR/recovered.cmp"
diff "$SMOKE_DIR/recovered.cmp" "$SMOKE_DIR/local.cmp" || {
  echo "ci: post-recovery results diverged from solve-batch" >&2; exit 1;
}

kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || { echo "ci: router did not drain cleanly on SIGTERM" >&2; exit 1; }
grep -q "drained" "$SMOKE_DIR/router.err" || {
  echo "ci: router did not report a drained exit" >&2; exit 1;
}
echo "ci: router smoke green (3 objectives + 1 pareto bit-identical through the front tier; SIGKILL recovery restarts=$RESTARTS)"

# Observability smoke: the same spawn-mode fleet shape, now fully traced
# (--trace-log on the router, --shard-trace-log on the children). The
# contract under test: observability changes NOTHING on the wire — solve
# bytes diff-identical to the obs-off solve-batch baseline — while the
# side channels fill up: the router's span log and both shard span logs
# parse as flat JSONL, cover every phase (relay on the router; parse,
# queue_wait, bind, solve, format on the shards — cache off, so no
# cache_lookup), and share trace ids; {"type":"metrics"} through the
# router returns fleet-merged histograms with derived quantiles; pipeopt
# top renders one frame against the live fleet; and client --poll-stats
# writes timestamped stats+metrics samples alongside a load run.
"$BIN" route --spawn 2 --jobs 2 --health-interval-ms 100 \
    --trace-log "$SMOKE_DIR/router_trace.jsonl" \
    --shard-trace-log "$SMOKE_DIR/shard_trace" \
    > "$SMOKE_DIR/obs_router.out" 2>"$SMOKE_DIR/obs_router.err" &
OBS_PID=$!
trap 'kill "$SERVER_PID" "$CACHE_PID" "$ROUTER_PID" "$OBS_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
OPORT=""
i=0
while [ $i -lt 100 ]; do
  OPORT=$(sed -n 's/.*router listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SMOKE_DIR/obs_router.out")
  [ -n "$OPORT" ] && break
  i=$((i + 1)); sleep 0.1
done
[ -n "$OPORT" ] || { echo "ci: traced router never announced its port" >&2; exit 1; }

"$BIN" client --port "$OPORT" --manifest "$SMOKE_DIR/batch.jsonl" \
    --objective period --poll-stats 50 --poll-out "$SMOKE_DIR/poll.jsonl" \
    > "$SMOKE_DIR/obs_routed.jsonl"
sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/obs_routed.jsonl" > "$SMOKE_DIR/obs_routed.cmp"
diff "$SMOKE_DIR/obs_routed.cmp" "$SMOKE_DIR/local.cmp" || {
  echo "ci: solve bytes changed with tracing enabled" >&2; exit 1;
}

# Fleet-merged metrics: summable histogram fields plus derived quantiles.
printf '{"type":"metrics"}\n' | "$BIN" client --port "$OPORT" - \
    > "$SMOKE_DIR/fleet_metrics.jsonl"
REQ_N=$(sed -n 's/.*"request\.n":"\([0-9]*\)".*/\1/p' "$SMOKE_DIR/fleet_metrics.jsonl")
[ -n "$REQ_N" ] && [ "$REQ_N" -gt 0 ] || {
  echo "ci: merged metrics missing a positive request.n (got '${REQ_N:-absent}')" >&2; exit 1;
}
grep -q '"request\.p50_us"' "$SMOKE_DIR/fleet_metrics.jsonl" &&
grep -q '"request\.p99_us"' "$SMOKE_DIR/fleet_metrics.jsonl" || {
  echo "ci: merged metrics missing derived quantile fields" >&2; exit 1;
}
grep -q '"shard\.0\.up":"1"' "$SMOKE_DIR/fleet_metrics.jsonl" &&
grep -q '"shard\.1\.up":"1"' "$SMOKE_DIR/fleet_metrics.jsonl" || {
  echo "ci: merged metrics missing per-shard liveness fields" >&2; exit 1;
}

# The top view renders one frame against the live fleet.
"$BIN" top --port "$OPORT" --iterations 1 --no-clear > "$SMOKE_DIR/top.out" || {
  echo "ci: pipeopt top failed against the live fleet" >&2; exit 1;
}
grep -q "pipeopt top" "$SMOKE_DIR/top.out" &&
grep -q "shards 2/2" "$SMOKE_DIR/top.out" || {
  echo "ci: pipeopt top did not render the fleet view" >&2; exit 1;
}

# The poll sampler wrote timestamped stats+metrics lines.
[ -s "$SMOKE_DIR/poll.jsonl" ] || {
  echo "ci: client --poll-stats wrote no samples" >&2; exit 1;
}
BAD=$(grep -cv '^{"t_ms":"[0-9]*","type":"\(stats\|metrics\)"' "$SMOKE_DIR/poll.jsonl" || true)
[ "$BAD" = 0 ] || { echo "ci: poll log has $BAD malformed sample lines" >&2; exit 1; }

# Drain the fleet BEFORE inspecting span logs: a shard appends its span
# line after the response bytes, so only the reaped-children barrier
# makes the logs complete.
kill -TERM "$OBS_PID"
wait "$OBS_PID" || { echo "ci: traced router did not drain cleanly on SIGTERM" >&2; exit 1; }

# Span-log shape: every line of every log is flat JSONL with a 16-hex
# trace id, and the fleet's logs jointly cover the full phase vocabulary.
for LOG in "$SMOKE_DIR/router_trace.jsonl" \
           "$SMOKE_DIR/shard_trace.0.jsonl" "$SMOKE_DIR/shard_trace.1.jsonl"; do
  [ -s "$LOG" ] || [ "$LOG" != "$SMOKE_DIR/router_trace.jsonl" ] || {
    echo "ci: $LOG is empty" >&2; exit 1;
  }
  if [ -s "$LOG" ]; then
    BAD=$(grep -cv '^{"trace":"[0-9a-f]\{16\}",' "$LOG" || true)
    [ "$BAD" = 0 ] || { echo "ci: $LOG has $BAD malformed span lines" >&2; exit 1; }
  fi
done
grep -q '"span\.relay_us"' "$SMOKE_DIR/router_trace.jsonl" || {
  echo "ci: router span log never recorded a relay span" >&2; exit 1;
}
cat "$SMOKE_DIR/shard_trace.0.jsonl" "$SMOKE_DIR/shard_trace.1.jsonl" \
    2>/dev/null > "$SMOKE_DIR/shard_trace.all.jsonl"
[ -s "$SMOKE_DIR/shard_trace.all.jsonl" ] || {
  echo "ci: no shard ever wrote a span line" >&2; exit 1;
}
for PHASE in parse queue_wait bind solve format; do
  grep -q "\"span\.${PHASE}_us\"" "$SMOKE_DIR/shard_trace.all.jsonl" || {
    echo "ci: shard span logs never covered phase '$PHASE'" >&2; exit 1;
  }
done
# One id stitches the tiers: every router-logged trace id reappears in
# exactly one shard's log.
while read -r TRACE_ID; do
  grep -q "\"trace\":\"$TRACE_ID\"" "$SMOKE_DIR/shard_trace.all.jsonl" || {
    echo "ci: trace id $TRACE_ID in the router log but no shard log" >&2; exit 1;
  }
done <<TRACE_IDS
$(sed -n 's/^{"trace":"\([0-9a-f]\{16\}\)".*/\1/p' "$SMOKE_DIR/router_trace.jsonl")
TRACE_IDS
echo "ci: obs smoke green (traced fleet byte-identical; span logs cover all phases; request.n=$REQ_N)"

# Chaos smoke: the front tier under a seeded fault campaign
# (--fault-spec on the router: accepted connections close, frames
# truncate or land in pieces, relay connects refuse, reads stall),
# driven by a client with a retry budget. The contract under test
# (docs/RESILIENCE.md): every admitted request still gets exactly one
# response, the bytes match the fault-free solve-batch baseline modulo
# wall_s, and the same seed replays the same campaign byte-for-byte.
CHAOS_SPEC="13:0.25:close,truncate,partial,delay"
chaos_campaign() { # $1 = campaign tag (a, b)
  "$BIN" route --spawn 2 --jobs 2 --health-interval-ms 100 \
      --fault-spec "$CHAOS_SPEC" --retries 8 --backoff-ms 5 \
      > "$SMOKE_DIR/chaos_router.$1.out" 2>"$SMOKE_DIR/chaos_router.$1.err" &
  CHAOS_PID=$!
  CPORT=""
  i=0
  while [ $i -lt 100 ]; do
    CPORT=$(sed -n 's/.*router listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "$SMOKE_DIR/chaos_router.$1.out")
    [ -n "$CPORT" ] && break
    i=$((i + 1)); sleep 0.1
  done
  [ -n "$CPORT" ] || { echo "ci: chaos router ($1) never announced its port" >&2; exit 1; }
  "$BIN" client --port "$CPORT" --manifest "$SMOKE_DIR/batch.jsonl" \
      --objective period --retries 25 --backoff-ms 5 \
      > "$SMOKE_DIR/chaos.$1.jsonl" 2>"$SMOKE_DIR/chaos_client.$1.err" || {
    echo "ci: chaos campaign ($1) exhausted the client retry budget" >&2
    cat "$SMOKE_DIR/chaos_client.$1.err" >&2
    exit 1
  }
  sed 's/,"wall_s":"[^"]*"//' "$SMOKE_DIR/chaos.$1.jsonl" > "$SMOKE_DIR/chaos.$1.cmp"
  kill -TERM "$CHAOS_PID"
  wait "$CHAOS_PID" || { echo "ci: chaos router ($1) did not drain cleanly" >&2; exit 1; }
}
trap 'kill "$SERVER_PID" "$CACHE_PID" "$ROUTER_PID" "$OBS_PID" "${CHAOS_PID:-}" "${BRK_PID:-}" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
chaos_campaign a
diff "$SMOKE_DIR/chaos.a.cmp" "$SMOKE_DIR/local.cmp" || {
  echo "ci: faulted campaign responses diverged from the clean baseline" >&2; exit 1;
}
# The client reports its retry accounting; the campaign must actually
# have injected something the budget absorbed (fixed seed, so this is a
# deterministic expectation, not a flake).
grep -q 'retries used=' "$SMOKE_DIR/chaos_client.a.err" || {
  echo "ci: chaos client never printed its retry summary" >&2; exit 1;
}
USED=$(sed -n 's/.*retries used=\([0-9]*\).*/\1/p' "$SMOKE_DIR/chaos_client.a.err")
[ "${USED:-0}" -ge 1 ] || {
  echo "ci: chaos campaign injected nothing the client had to retry (used='${USED:-absent}')" >&2
  exit 1
}
chaos_campaign b
diff "$SMOKE_DIR/chaos.a.cmp" "$SMOKE_DIR/chaos.b.cmp" || {
  echo "ci: the same fault seed did not replay the same campaign" >&2; exit 1;
}

# Breaker pass: SIGKILL a shard under a fault-free router and assert the
# circuit breaker opens (down transition), the supervisor's respawn
# closes it again (up transition), and both surface through stats and
# metrics alongside the failover's per-code retry counters.
"$BIN" route --spawn 2 --jobs 2 --health-interval-ms 100 \
    > "$SMOKE_DIR/brk_router.out" 2>"$SMOKE_DIR/brk_router.err" &
BRK_PID=$!
BPORT=""
i=0
while [ $i -lt 100 ]; do
  BPORT=$(sed -n 's/.*router listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SMOKE_DIR/brk_router.out")
  [ -n "$BPORT" ] && break
  i=$((i + 1)); sleep 0.1
done
[ -n "$BPORT" ] || { echo "ci: breaker-pass router never announced its port" >&2; exit 1; }
BRK_SHARD0=$(sed -n 's/.*shard 0 at [^ ]* pid \([0-9]*\).*/\1/p' "$SMOKE_DIR/brk_router.out")
[ -n "$BRK_SHARD0" ] || { echo "ci: breaker-pass router never announced shard 0's pid" >&2; exit 1; }
kill -KILL "$BRK_SHARD0"
"$BIN" client --port "$BPORT" --manifest "$SMOKE_DIR/batch.jsonl" \
    --objective period > /dev/null || {
  echo "ci: traffic through the open-breaker failover path failed" >&2; exit 1;
}
DOWN=""; UPT=""
i=0
while [ $i -lt 100 ]; do
  printf '{"type":"stats"}\n' | "$BIN" client --port "$BPORT" - \
      > "$SMOKE_DIR/brk_stats.jsonl" 2>/dev/null || true
  DOWN=$(sed -n 's/.*"shard_down_transitions":"\([0-9]*\)".*/\1/p' "$SMOKE_DIR/brk_stats.jsonl")
  UPT=$(sed -n 's/.*"shard_up_transitions":"\([0-9]*\)".*/\1/p' "$SMOKE_DIR/brk_stats.jsonl")
  SUP=$(sed -n 's/.*"shards_up":"\([0-9]*\)".*/\1/p' "$SMOKE_DIR/brk_stats.jsonl")
  [ "${DOWN:-0}" -ge 1 ] && [ "${UPT:-0}" -ge 1 ] && [ "${SUP:-0}" = 2 ] && break
  i=$((i + 1)); sleep 0.1
done
[ "${DOWN:-0}" -ge 1 ] && [ "${UPT:-0}" -ge 1 ] || {
  echo "ci: breaker transitions never surfaced (down='${DOWN:-absent}', up='${UPT:-absent}')" >&2
  exit 1
}
printf '{"type":"metrics"}\n' | "$BIN" client --port "$BPORT" - \
    > "$SMOKE_DIR/brk_metrics.jsonl"
grep -q '"shard\.0\.breaker_state":"0"' "$SMOKE_DIR/brk_metrics.jsonl" &&
grep -q '"shard\.1\.breaker_state":"0"' "$SMOKE_DIR/brk_metrics.jsonl" || {
  echo "ci: recovered fleet metrics missing closed breaker_state gauges" >&2; exit 1;
}
grep -q '"retries_by_code\.' "$SMOKE_DIR/brk_metrics.jsonl" || {
  echo "ci: failover retries never surfaced in retries_by_code.*" >&2; exit 1;
}
kill -TERM "$BRK_PID"
wait "$BRK_PID" || { echo "ci: breaker-pass router did not drain cleanly on SIGTERM" >&2; exit 1; }
echo "ci: chaos smoke green (faulted campaign byte-identical and seed-replayable, retries used=${USED:-0}; breaker down=$DOWN up=$UPT)"

# ThreadSanitizer build of the executor, plan, cancellation, server and
# router tests — the code that actually runs worker pools, session threads
# and the router's relay/health threads, plus the striped metric
# registries and trace contexts they now record into.
# Skipped (loudly) when the toolchain has no libtsan; everything above has
# already gated the merge. The probe uses the same compiler CMake will
# ($CXX when set), so probe and build cannot disagree.
if echo 'int main(){}' | "${CXX:-c++}" -fsanitize=thread -x c++ - -o "${TMPDIR:-/tmp}/pipeopt_tsan_probe.$$" 2>/dev/null; then
  rm -f "${TMPDIR:-/tmp}/pipeopt_tsan_probe.$$"
  cmake -B "$BUILD_DIR-tsan" -S . -DPIPEOPT_WERROR=ON -DPIPEOPT_TSAN=ON
  cmake --build "$BUILD_DIR-tsan" -j "$(nproc)" --target pipeopt_tests
  "$BUILD_DIR-tsan/pipeopt_tests" \
      --gtest_filter='Executor.*:Plan.*:DispatchPlan.*:Server.*:Deadline.*:Cancel.*:Sweep.*:Cache.*:Router.*:StatsMerge.*:EvalBatch.*:*/EvalBatch.*:Obs.*:Metrics.*:*WireFuzz*:Chaos.*:Retry.*:Fault.*:Socket.*:SessionHost.*:Fdio.*'
else
  echo "ci: ThreadSanitizer unavailable, skipping the tsan pass" >&2
fi

# Address+UB sanitizer pass over the fuzz surfaces: the wire-protocol
# robustness fuzz (truncations, byte mutations, duplicate/unknown fields)
# and the solver-property fuzz, where a latent out-of-bounds or UB would
# hide behind a benign-looking wrong answer; plus the server, router and
# chaos suites, which drive the session fd and thread lifetimes. Probed like the tsan pass so
# a toolchain without libasan skips loudly instead of failing the merge.
if echo 'int main(){}' | "${CXX:-c++}" -fsanitize=address,undefined -x c++ - -o "${TMPDIR:-/tmp}/pipeopt_asan_probe.$$" 2>/dev/null; then
  rm -f "${TMPDIR:-/tmp}/pipeopt_asan_probe.$$"
  cmake -B "$BUILD_DIR-asan" -S . -DPIPEOPT_WERROR=ON -DPIPEOPT_ASAN=ON
  cmake --build "$BUILD_DIR-asan" -j "$(nproc)" --target pipeopt_tests
  "$BUILD_DIR-asan/pipeopt_tests" \
      --gtest_filter='*WireFuzz*:*PropertyFuzz*:*MappingFuzz*:MipLp.*:MipBackend.*:Server.*:Router.*:Chaos.*'
else
  echo "ci: Address/UB sanitizer unavailable, skipping the asan pass" >&2
fi

echo "ci: all green"
