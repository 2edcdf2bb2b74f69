#!/usr/bin/env bash
# Offline CI gate: format, lint, test — all without touching the network.
# Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# `stage NAME` closes the previous stage with its elapsed seconds and opens
# the next, so a suite-time regression shows in the log.
stage_name=""
stage_started=0
stage() {
  [ -z "$stage_name" ] || echo "-- $((SECONDS - stage_started)) s: $stage_name"
  stage_name="$1"
  stage_started=$SECONDS
  echo "== $stage_name"
}

stage "cargo fmt --check"
cargo fmt --all -- --check

stage "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo test"
cargo test --workspace -q

stage "scheduler tests on one visible CPU (park-only hand-off)"
# With one CPU in the affinity mask the scheduler's cached host size is 1,
# so no live thread count fits and every block goes straight to the OS
# park — the path a 2-vCPU host otherwise takes only when oversubscribed.
if command -v taskset > /dev/null; then
  taskset -c 0 cargo test -q -p txsim-htm sched
else
  echo "taskset not found: park-only scheduler stage skipped"
fi

stage "serve-mode smoke test (ephemeral port, /healthz + /metrics scrape)"
cargo test -q -p txbench --test serve_smoke

stage "fleet-aggregation smoke test (two serve instances, one aggregator)"
cargo test -q -p txbench --test agg_smoke

stage "fallback smoke runs (repro --fallback {lock,stm,hle,adaptive} on a contended workload)"
for fallback in lock stm hle adaptive; do
  cargo run --release -q -p txbench --bin repro -- \
    --fallback "$fallback" --trials 1 profile micro/true_sharing > /dev/null
done

stage "adaptive-fallback regression gate (repro diff --check vs pinned baseline)"
# Profile the mixed-phase workload under the adaptive backend and diff it
# against the pinned results/baseline_mixed_adaptive.txsp (store v6, with
# per-site latency/retry histograms). The gate fails on a dominant
# component-share regression (>= 10 pp; the workload runs on real
# threads, so smaller share movement — lock-wait especially — is
# scheduling jitter), any decision-tree suggestion absent from the
# baseline, or a well-sampled site whose p99 transaction latency moved up
# by >= 2 log buckets (a 4x tail regression; single-bucket moves are
# boundary jitter). Rebless after an intentional change that shifts the
# decomposition with:
#   cargo run --release -q -p txbench --bin repro -- \
#     --threads 4 --scale 40 --trials 5 --fallback adaptive \
#     --out results profile micro/mixed_phase
#   mv results/profile-micro_mixed_phase.txsp results/baseline_mixed_adaptive.txsp
#   git add -f results/baseline_mixed_adaptive.txsp   # /results is gitignored
# then rebless the stored-profile CLI goldens below and the fleet pins
# (BLESS=1 cargo test -q --test fleet_product_pin), which read it too.
fresh_dir="$(mktemp -d)"
trap 'rm -rf "$fresh_dir"' EXIT
cargo run --release -q -p txbench --bin repro -- \
  --threads 4 --scale 40 --trials 5 --fallback adaptive \
  --out "$fresh_dir" profile micro/mixed_phase > /dev/null
cargo run --release -q -p txbench --bin repro -- diff \
  results/baseline_mixed_adaptive.txsp \
  "$fresh_dir/profile-micro_mixed_phase.txsp" --check > /dev/null

stage "pinned STM-profile regression gates (repro diff --check vs baselines)"
# Three more pinned baselines, all profiled under the STM fallback
# (backoff contention manager, the default): the starvation workload, the
# irrevocable workload and the true-sharing hammer. Same gate semantics
# as the adaptive baseline above. Rebless after an intentional change
# with:
#   for w in starved_writer irrevocable true_sharing; do
#     cargo run --release -q -p txbench --bin repro -- \
#       --threads 4 --scale 40 --fallback stm --out results profile micro/$w
#     mv results/profile-micro_$w.txsp results/baseline_${w}_stm.txsp
#   done
#   git add -f results/baseline_*_stm.txsp   # /results is gitignored
for w in starved_writer irrevocable true_sharing; do
  cargo run --release -q -p txbench --bin repro -- \
    --threads 4 --scale 40 --fallback stm \
    --out "$fresh_dir" profile micro/$w > /dev/null
  cargo run --release -q -p txbench --bin repro -- diff \
    "results/baseline_${w}_stm.txsp" \
    "$fresh_dir/profile-micro_$w.txsp" --check > /dev/null
done

stage "stored-profile CLI goldens (repro report / flamegraph / diff vs results/golden)"
# The offline commands resolve names from the profile's own `func`
# records (NameSource::Names), a text path no in-crate golden covers.
# Every pinned baseline's report and folded stacks, and one diff, must
# render byte for byte as recorded. Rebless after an intentional output
# change with:
#   for b in results/baseline_*.txsp; do
#     n=$(basename "$b" .txsp)
#     cargo run --release -q -p txbench --bin repro -- report "$b" \
#       > "results/golden/report_${n#baseline_}.txt"
#     cargo run --release -q -p txbench --bin repro -- flamegraph "$b" \
#       > "results/golden/flamegraph_${n#baseline_}.folded"
#   done
#   cargo run --release -q -p txbench --bin repro -- diff \
#     results/baseline_starved_writer_stm.txsp \
#     results/baseline_true_sharing_stm.txsp \
#     > results/golden/diff_starved_writer_vs_true_sharing.txt
#   git add -f results/golden/*   # /results is gitignored
for b in results/baseline_*.txsp; do
  n=$(basename "$b" .txsp)
  cargo run --release -q -p txbench --bin repro -- report "$b" > "$fresh_dir/report.txt"
  diff -u "results/golden/report_${n#baseline_}.txt" "$fresh_dir/report.txt"
  cargo run --release -q -p txbench --bin repro -- flamegraph "$b" > "$fresh_dir/folded.txt"
  diff -u "results/golden/flamegraph_${n#baseline_}.folded" "$fresh_dir/folded.txt"
done
cargo run --release -q -p txbench --bin repro -- diff \
  results/baseline_starved_writer_stm.txsp \
  results/baseline_true_sharing_stm.txsp > "$fresh_dir/diff.txt"
diff -u results/golden/diff_starved_writer_vs_true_sharing.txt "$fresh_dir/diff.txt"

stage "contention-manager smoke (starved_writer under every policy)"
for cm in backoff karma escalate; do
  cargo run --release -q -p txbench --bin repro -- \
    --fallback stm --cm "$cm" --trials 1 --scale 5 \
    profile micro/starved_writer > /dev/null
done

stage "karma starvation-rescue gate (repro diff backoff vs karma)"
# The subsystem's headline: under the STM fallback, switching the
# contention manager from backoff to karma must resolve the decision
# tree's starvation diagnosis on micro/starved_writer (the same shape the
# htmbench acceptance test asserts with 2 log-buckets of p99 retry-depth
# margin).
cargo run --release -q -p txbench --bin repro -- \
  --threads 8 --scale 10 --fallback stm --cm backoff \
  --out "$fresh_dir" profile micro/starved_writer > /dev/null
mv "$fresh_dir/profile-micro_starved_writer.txsp" "$fresh_dir/cm_backoff.txsp"
cargo run --release -q -p txbench --bin repro -- \
  --threads 8 --scale 10 --fallback stm --cm karma \
  --out "$fresh_dir" profile micro/starved_writer > /dev/null
mv "$fresh_dir/profile-micro_starved_writer.txsp" "$fresh_dir/cm_karma.txsp"
cargo run --release -q -p txbench --bin repro -- diff \
  "$fresh_dir/cm_backoff.txsp" "$fresh_dir/cm_karma.txsp" \
  | grep -q "resolved: this site is starved" || {
  echo "karma failed to resolve the starvation diagnosis" >&2
  exit 1
}

stage "collector self-cost gate (repro --self-profile vs the Fig. 5 ~4% budget)"
# Bills the run's SamplesTaken at a per-sample cost calibrated inline and
# exits 1 when the collector's share of instrumented wall meets or
# exceeds the budget. The paper's Fig. 5 puts total profiling overhead
# near 4%; the collector fast path alone must stay inside it.
cargo run --release -q -p txbench --bin repro -- \
  --threads 4 --scale 3 --self-profile fig7 --self-profile-budget 4 \
  --out "$fresh_dir" > /dev/null

stage "benchmark harness (its own workspace: unit tests + smoke run of all five workloads)"
# benchmark/ builds against ../crates/* through path dependencies but is
# not a member of this workspace, so nothing above notices when a
# signature it calls changes.
cargo test --manifest-path benchmark/Cargo.toml -q
benchmark/smoke.sh > /dev/null

stage "ci.sh: all green in $SECONDS s"
