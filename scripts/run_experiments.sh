#!/usr/bin/env bash
# Regenerate every results/ artefact from the instrumented harness.
#
# Each experiment binary writes its human-readable report to
# results/<name>.txt, its wall time to results/<name>.time, and — through
# the telemetry layer — a versioned run manifest
# (results/<name>.manifest.json) plus, for session-based experiments, the
# raw JSONL event stream (results/<name>.events.jsonl). results/run.log
# records the sequence. See docs/TELEMETRY.md for the stream and manifest
# schemas.
#
# Usage: scripts/run_experiments.sh [results-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-results}"
mkdir -p "$OUT"
: > "$OUT/run.log"

cargo build --release --workspace

run() {
  local name="$1"
  shift
  echo "=== running $name $* ===" | tee -a "$OUT/run.log"
  local t0 t1
  t0=$(date +%s)
  ./target/release/"$name" "$@" > "$OUT/$name.txt"
  t1=$(date +%s)
  echo "$((t1 - t0)) s" > "$OUT/$name.time"
}

run e1_convergence --trials 200
run e2_timing --trials 60
run e3_search_space
run e4_resources --tree
run e5_fitness_vs_walk --random 20000 --champions 40
run e6_pipeline --gens 200 --seeds 8
run e7_ablation --trials 30
run e8_rng --trials 60
run e9_sweep --trials 40
run e10_islands --trials 20
run e11_walker_loop --trials 12
run e12_wide_genomes --trials 20
run e13_seu --trials 16
run e14_fault_matrix --trials 8
# the full 2^36 enumeration — seconds of wall clock, every shard checked
# against the closed form
run e15_landscape
# NSGA-II gait fronts + the 512-genome max-set walk table (pareto
# manifest rows; see docs/PARETO.md)
run e16_pareto
# evolvable-problem registry campaigns + subspace sweeps (`problems`
# and `landscape` manifest rows; see docs/PROBLEMS.md)
run e17_fsm

# the server latency report: serve the engines over HTTP, sweep client
# concurrency with loadgen, record the passes as `server` manifest rows
# (see docs/SERVER.md); regenerates BENCH_PR8.json at the repo root
echo "=== running server_latency (leonardo-server + loadgen) ===" | tee -a "$OUT/run.log"
t0=$(date +%s)
./target/release/leonardo-server --addr 127.0.0.1:7878 --threads 24 > "$OUT/server_latency.txt" 2>&1 &
SERVER_PID=$!
for i in $(seq 1 50); do
  grep -q 'listening on' "$OUT/server_latency.txt" && break
  sleep 0.2
done
./target/release/loadgen --addr 127.0.0.1:7878 --requests 384 --clients 1,4,16 \
  --out BENCH_PR8.json --manifest "$OUT/bench_pr8_manifest.json" --label bench_pr8 \
  2>> "$OUT/server_latency.txt"
kill "$SERVER_PID"
t1=$(date +%s)
echo "$((t1 - t0)) s" > "$OUT/server_latency.time"

echo "ALL_EXPERIMENTS_DONE" | tee -a "$OUT/run.log"
