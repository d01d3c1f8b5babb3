#!/usr/bin/env bash
# Repository gate: formatting, lints, the test suite, the frozen
# benchmark harness, fourteen budgets (receiver entry points, one
# subframe dispatcher, one performance harness, a first-party std-only
# workspace, one paper-artifact table, one kind of pool work, one
# overload path, paper artifacts only, one overload response, one
# host-telemetry path, paper pipeline only, one turbo stop rule, one
# pass-through tail, one coded tail),
# conformance vectors on both dispatch paths, the fuzz corpus, the
# paper artifacts at reduced scale, and a smoke run of every driver
# (chaos, govern, lte_bench, soak, deploy, serve) plus the two cost
# gates among the `crates/bench` micro-benchmarks.
#
#   scripts/check.sh            # everything, tests over the workspace
#   scripts/check.sh --tier1    # same, tests over the root package only
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

scope=(--workspace)
if [[ "${1:-}" == "--tier1" ]]; then
    scope=()
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q ${scope[*]:-}"
cargo test --offline -q "${scope[@]}"

echo "==> frozen harness (examples/lte_bench) builds and tests against this tree"
# lte_bench is a package of its own that BENCHMARK.json freezes: it is
# never edited alongside the workspace, so an API break against it only
# shows up when it is compiled here.
cargo build --release --offline --manifest-path examples/lte_bench/Cargo.toml
cargo test -q --release --offline --manifest-path examples/lte_bench/Cargo.toml

echo "==> receiver entry-point budget"
# One serial receiver body: a seventh process_user*/demodulate_user*/
# finish_user* entry point is a fork growing back.
[[ "$(grep -c 'pub fn \(process\|demodulate\|finish\)_user' crates/phy/src/receiver.rs)" -le 6 ]] \
    || { echo "receiver.rs exposes more than 6 process/demodulate/finish_user entry points"; exit 1; }

echo "==> one subframe dispatcher budget"
# Benchmark, serve and deploy hand subframes to the pool through
# dispatch.rs alone: an in-flight condvar or a task-graph spawn in one
# of their loops, or per-shard counters back in lte-sched, is a second
# dispatch path growing back.
for loop_rs in benchmark serve deploy; do
    ! grep -q 'Condvar' "crates/core/src/$loop_rs.rs" \
        || { echo "crates/core/src/$loop_rs.rs waits on its own Condvar"; exit 1; }
done
[[ "$(grep -rl 'spawn_user_graph' crates/core/src)" == "crates/core/src/dispatch.rs" ]] \
    || { echo "spawn_user_graph is named outside crates/core/src/dispatch.rs"; exit 1; }
! grep -q 'ShardCounters' crates/sched/src/lib.rs \
    || { echo "crates/sched/src/lib.rs exports ShardCounters"; exit 1; }

echo "==> one performance harness budget"
# lte_bench is the only yardstick: core's perf.rs names the steady-state
# subframe and nothing else, so a second `pub fn` there is `lte-sim
# perf` growing back.
[[ "$(grep -c 'pub fn' crates/core/src/perf.rs)" -le 1 ]] \
    || { echo "crates/core/src/perf.rs exposes more than one pub fn"; exit 1; }

echo "==> first-party, std-only budget"
# The workspace owns its whole substrate on `std`: no vendored stand-in
# directory, no package in the lock that is not one of ours, and no
# mention of the three crates the stand-ins once imitated.
[[ ! -e vendor ]] \
    || { echo "vendor/ exists: the workspace is first-party only"; exit 1; }
[[ -z "$(grep '^name = ' Cargo.lock | grep -v '^name = "lte-' || true)" ]] \
    || { echo "Cargo.lock names a package that is not lte-*"; exit 1; }
[[ -z "$(grep -rn 'crossbeam\|parking_lot\|criterion' --include='*.rs' --include='*.toml' \
    crates fuzz src tests Cargo.toml || true)" ]] \
    || { echo "a source or manifest file names crossbeam, parking_lot or criterion"; exit 1; }

echo "==> one paper-artifact table budget"
# Every figure, table and the §IV-D check is resolved, written and
# checked through crates/core/src/artifacts.rs: hand-written figure arms
# growing back push cli.rs past its budget, and the golden record has no
# text format to store.
[[ "$(wc -l < crates/core/src/cli.rs)" -le 972 ]] \
    || { echo "crates/core/src/cli.rs exceeds 972 lines"; exit 1; }
! grep -q 'to_text\|from_text' crates/phy/src/verify.rs \
    || { echo "crates/phy/src/verify.rs grew a golden-record text format"; exit 1; }

echo "==> one kind of pool work budget"
# The pool runs detached tasks only: one global user queue, one deque
# per worker, single-task steals. A job queue, a fork-join scope or a
# batched steal growing back is a second execution model, and the two
# files must stay within the line count that deleting those left.
pool_lines=0
for f in crates/sched/src/pool.rs crates/sched/src/deque.rs; do
    pool_lines=$((pool_lines + $(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n }' "$f")))
done
[[ "$pool_lines" -le 775 ]] \
    || { echo "pool.rs + deque.rs have $pool_lines non-test lines (budget 775)"; exit 1; }
[[ -z "$(grep -rn 'submit_job\|fn scope\|steal_half_into\|SCOPE_NANOS' crates/sched/src || true)" ]] \
    || { echo "crates/sched/src names submit_job, fn scope, steal_half_into or SCOPE_NANOS"; exit 1; }

echo "==> one overload path budget"
# The benchmark loop dispatches every user with one demapper, as the
# paper's does; overload handling lives in serve's escalation ladder and
# the DES. A deadline policy, a HARQ pass or an exact-demap switch
# growing back into the benchmark, or
# the pooled exact demapper or the oldest-open scan into the drivers, is
# a second decode path.
bench_lines="$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n }' crates/core/src/benchmark.rs)"
[[ "$bench_lines" -le 329 ]] \
    || { echo "benchmark.rs has $bench_lines non-test lines (budget 329)"; exit 1; }
[[ -z "$(awk '/^pub struct BenchmarkConfig/,/^}/' crates/core/src/benchmark.rs \
    | grep -n 'deadline\|harq\|exact_demap' || true)" ]] \
    || { echo "BenchmarkConfig names deadline, harq or exact_demap"; exit 1; }
[[ -z "$(grep -rn 'oldest_open\|demap_block_exact_into' crates/core/src || true)" ]] \
    || { echo "crates/core/src names oldest_open or demap_block_exact_into"; exit 1; }

echo "==> paper artifacts only budget"
# The paper's receiver has no HARQ and names DVFS only as future work,
# and every number lte-sim prints outside its drivers is a checked row
# of the artifact table. HARQ combining, the redundancy-version rate
# matcher, the DVFS ladder or the ablation sweeps growing back, or a
# command printing unchecked numbers beside the table, fails here.
[[ -z "$(grep -rn 'HarqEntity\|combine_llrs\|match_bits_rv\|DvfsPolicy\|mod ablation' crates fuzz || true)" ]] \
    || { echo "crates/ or fuzz/ names HarqEntity, combine_llrs, match_bits_rv, DvfsPolicy or mod ablation"; exit 1; }
[[ -z "$(grep -n '"\(concurrency\|ablation\|diurnal\)" =>' crates/core/src/cli.rs || true)" ]] \
    || { echo "crates/core/src/cli.rs dispatches concurrency, ablation or diurnal outside the artifact table"; exit 1; }

echo "==> one overload response budget"
# Shedding the cheapest users is the one overload response in the DES,
# chaos, soak and serve. A drop or degrade policy, the deadline-budget
# wrapper around it, or serve's degrade watermark growing back is a
# dormant second response.
[[ -z "$(grep -rn 'OverloadPolicy\|DeadlineBudget\|DropSubframe\|DegradeDemap\|degrade_demap\|degrade_fill' \
    crates fuzz src tests || true)" ]] \
    || { echo "crates/, fuzz/, src/ or tests/ name OverloadPolicy, DeadlineBudget, DropSubframe, DegradeDemap, degrade_demap or degrade_fill"; exit 1; }

echo "==> one host-telemetry path budget"
# Host time is observed one way: StageTimer spans into a Recorder plus
# the pool's per-worker counters, read on the real workloads by
# lte_bench and `lte-sim trace --metrics`. Pool-internal or per-stage
# histograms, soak's wall-clock burst, or lte-obs API that only tests
# call growing back is a second telemetry path.
[[ -z "$(grep -rn 'StageHists\|PoolTelemetry\|attach_telemetry\|histograms_only\|JsonLinesRecorder\|WindowAggregate\|SOAK_HOST\|host_metrics_burst' \
    crates fuzz src tests || true)" ]] \
    || { echo "crates/, fuzz/, src/ or tests/ name StageHists, PoolTelemetry, attach_telemetry, histograms_only, JsonLinesRecorder, WindowAggregate, SOAK_HOST or host_metrics_burst"; exit 1; }

echo "==> paper pipeline only budget"
# The paper's benchmark starts at the post-FFT subframe grid (§IV: "We
# exclude the computations of the frontend from our benchmark"). A
# time-domain front-end model or its receive filter growing back is code
# no driver, artifact or harness path runs.
[[ -z "$(grep -rn 'FrontEnd\|FirFilter' crates fuzz src tests || true)" ]] \
    || { echo "crates/, fuzz/, src/ or tests/ name FrontEnd or FirFilter"; exit 1; }

echo "==> one turbo stop rule budget"
# A code block stops at the first SISO pass whose hard decisions pass its
# CRC (`TurboDecoder::decode_group_until`); without a stop rule it runs
# every iteration. The bitwise fixed-point early termination growing
# back is a second stop rule beside it.
[[ -z "$(grep -rn 'early_termination' crates fuzz src tests || true)" ]] \
    || { echo "crates/, fuzz/, src/ or tests/ name with_early_termination or early_termination"; exit 1; }

echo "==> one pass-through tail budget"
# The receiver's pass-through arm is the one-pass kernel
# (lte_dsp::passthrough): descramble, deinterleave, decide and CRC on
# packed bits. The four-pass form — an f32 descramble buffer, a gather
# through the inverse permutation, one byte per decision — growing back
# beside it is a second tail. The turbo arm keeps f32 LLRs, so its
# decisions are the next budget's business.
passthrough_arm="$(awk '/\(TurboMode::Passthrough, FramePlan::Passthrough/,/\(TurboMode::Decode/' \
    crates/phy/src/receiver.rs)"
[[ -n "$passthrough_arm" ]] \
    || { echo "crates/phy/src/receiver.rs has no pass-through arm to search"; exit 1; }
! grep -q 'inverse_permutation\|descramble_llrs_into\|hard_decisions_into' <<< "$passthrough_arm" \
    || { echo "the receiver's pass-through arm names inverse_permutation, descramble_llrs_into or hard_decisions_into"; exit 1; }

echo "==> one coded tail budget"
# The receiver's turbo arm descrambles and deinterleaves in one pass
# (lte_dsp::interleave::DeinterleavedLlrs) and dematches each code block
# by column-walk transposes (RateMatcher::accumulate_llrs_into). An f32
# descramble copy, the inverse permutation or the table gather growing
# back in the arm or in the two functions it calls is a second tail.
coded_arm="$(awk '/\(TurboMode::Decode \{ iterations \}, FramePlan::Coded/,/unreachable!\("plan always matches mode"\)/' \
    crates/phy/src/receiver.rs
    awk '/^fn (dematch|decode)_transport/,/^}/' crates/phy/src/receiver.rs)"
[[ "$(grep -c '^fn \(dematch\|decode\)_transport' <<< "$coded_arm")" -eq 2 ]] \
    && grep -q 'FramePlan::Coded' <<< "$coded_arm" \
    || { echo "crates/phy/src/receiver.rs has no coded arm, dematch_transport or decode_transport to search"; exit 1; }
! grep -q 'inverse_permutation\|accumulate_llrs_gather_into\|descramble_llrs' <<< "$coded_arm" \
    || { echo "the receiver's coded arm names inverse_permutation, accumulate_llrs_gather_into or descramble_llrs"; exit 1; }

echo "==> conformance vectors (SIMD + forced-scalar)"
# Golden kernel vectors: every DSP kernel's output hashed and diffed
# against conformance/golden.json, once on the runtime-detected SIMD
# path and once forced scalar. Byte drift on either path — or any
# SIMD/scalar disagreement — fails the build. Regenerate (only for an
# *intentional* numerics change) with `lte-sim vectors --write`.
cargo run -q --offline --release -p lte-uplink --bin lte-sim -- vectors --check \
    || { echo "conformance: kernel output drifted from the golden vectors"; exit 1; }
cargo run -q --offline --release -p lte-uplink --bin lte-sim -- vectors --check --scalar \
    || { echo "conformance: forced-scalar path drifted from the golden vectors"; exit 1; }

echo "==> paper artifacts (lte-sim all --quick, twice)"
# Every artifact-table row at reduced scale: each check passes (the four
# claims about the ramp peak report "not checked"), and the thirteen
# files are identical across two runs.
for run in a b; do
    rm -rf "target/all-smoke-$run"
    cargo run -q --offline --release -p lte-uplink --bin lte-sim -- \
        all --quick --out "target/all-smoke-$run" >/dev/null \
        || { echo "paper artifacts: a row's check failed (run $run)"; exit 1; }
done
diff -r target/all-smoke-a target/all-smoke-b \
    || { echo "paper artifacts: two runs wrote different files"; exit 1; }

echo "==> fuzz smoke (lte-fuzz)"
# Short deterministic corpus (fixed default seed, bounded iterations):
# a reintroduced kernel panic or SIMD/scalar divergence fails the
# build. Longer hunts just raise --iters / vary --seed.
cargo run -q --offline --release -p lte-fuzz -- all --iters 120 \
    || { echo "fuzz smoke: a kernel panicked or the SIMD/scalar paths diverged"; exit 1; }
# The serial-tail rewrites (word-parallel Gold sequence, table CRC,
# branch-free descramble, fixed-size MMSE solve, one-pass pass-through
# tail, column-walk coded tail), the FFT's generic butterfly (all output chains advanced
# together) and its iterative driver (vectorized leaf stage, one pass
# per level) against the one-at-a-time oracles in fuzz/src/oracle.rs,
# and the turbo decoder's lockstep group decode against one-block scalar
# decodes, by name and deeper.
for target in gold-word crc-table descramble mmse-fixed fft-prime fft-order turbo-group \
    passthrough-tail coded-tail; do
    for seed in 1 2 3; do
        cargo run -q --offline --release -p lte-fuzz -- "$target" --iters 2000 --seed "$seed" \
            || { echo "fuzz: $target diverged from its oracle (seed $seed)"; exit 1; }
    done
done

echo "==> chaos smoke (lte-sim chaos, twice)"
# Every chaos counter is a pure function of the seed, so two runs must
# write byte-identical trace and metrics artifacts. Each block is decoded
# once: exactly the noise-bursted blocks fail, and a corrupted grid
# decodes or fails without a panic.
chaos_out="$(cargo run -q --offline -p lte-uplink --bin lte-sim -- \
    chaos --quick --subframes 120 --out target/chaos-smoke)"
cargo run -q --offline -p lte-uplink --bin lte-sim -- \
    chaos --quick --subframes 120 --out target/chaos-smoke-b >/dev/null \
    || { echo "chaos smoke: second run failed"; exit 1; }
for f in chaos.metrics.json chaos.perfetto.json; do
    cmp -s "target/chaos-smoke/$f" "target/chaos-smoke-b/$f" \
        || { echo "chaos smoke: $f differs between identical runs"; exit 1; }
done
echo "$chaos_out" | tail -n 6
echo "$chaos_out" | grep -q "^lost tasks: 0$" \
    || { echo "chaos smoke: tasks were lost"; exit 1; }
echo "$chaos_out" | grep -q "^duplicated tasks: 0$" \
    || { echo "chaos smoke: tasks ran twice"; exit 1; }
link_line="$(echo "$chaos_out" | grep "^link: ")" \
    || { echo "chaos smoke: missing link report"; exit 1; }
link_blocks="$(echo "$link_line" | sed -n 's/^link: \([0-9]*\) blocks.*/\1/p')"
link_bursts="$(echo "$link_line" | sed -n 's/.*noise bursts \([0-9]*\).*/\1/p')"
link_ok="$(echo "$link_line" | sed -n 's/.*delivered ok \([0-9]*\)$/\1/p')"
[[ -n "$link_ok" && "$link_ok" -eq $((link_blocks - link_bursts)) ]] \
    || { echo "chaos smoke: delivered ok ${link_ok:-?} is not blocks minus noise bursts"; exit 1; }

echo "==> governor smoke (lte-sim govern)"
# Release: the governed pool runs pace real subframes, and a debug-built
# PHY pipeline would blow every dispatch window. The gate lines assert
# the estimator tracks measured activity (mean error < 10% per policy)
# and that governed pool output stays byte-identical, with parked core
# time demonstrated on the low-load burst.
govern_out="$(cargo run -q --offline --release -p lte-uplink --bin lte-sim -- \
    govern --quick --subframes 200 --out target/govern-smoke)"
echo "$govern_out" | tail -n 9
[[ "$(echo "$govern_out" | grep -c "govern gate: .* — PASS")" -eq 4 ]] \
    || { echo "governor smoke: estimator error gate did not pass all four policies"; exit 1; }
echo "$govern_out" | grep -q "govern pool NAP+IDLE low load: .* output byte-identical" \
    || { echo "governor smoke: governed pool output diverged"; exit 1; }

echo "==> governor decision-cost gate (governor_overhead bench)"
cargo bench -q --offline -p lte-bench --bench governor_overhead | grep "governor_overhead:" \
    || { echo "governor decision-cost gate failed"; exit 1; }

echo "==> benchmark smoke (lte_bench run: steady100, turbo100)"
# Two seconds of each receiver workload through the one harness (built
# by the frozen-harness step above). No stored number is compared here —
# `lte_bench compare A B` does that between two result files of the same
# host — but the run exits non-zero when the pooled output leaves the
# serial reference (`UplinkBenchmark::verify`) or a golden kernel vector
# drifts, so a fast wrong receiver cannot pass.
for workload in steady100 turbo100; do
    cargo run -q --release --offline --manifest-path examples/lte_bench/Cargo.toml -- \
        run --workload "$workload" --seconds 2 --out target/bench-smoke \
        || { echo "benchmark smoke: $workload failed a post-run correctness check"; exit 1; }
done

echo "==> soak smoke (lte-sim soak)"
# A healthy low-load prefix must pass every SLO window (exit 0), the
# soak writes exactly its three deterministic artifacts — SOAK.json,
# the window stream, the OpenMetrics exposition — and they must be
# byte-identical across runs. The
# histogram-record gate (< 50 ns/op, asserted inside the bench) rides
# along via obs_overhead's greppable line.
rm -rf target/soak-smoke-a target/soak-smoke-b
cargo run -q --offline -p lte-uplink --bin lte-sim -- \
    soak --subframes 200 --window 100 --out target/soak-smoke-a \
    | tail -n 3 \
    || { echo "soak smoke: healthy run violated its SLO"; exit 1; }
cargo run -q --offline -p lte-uplink --bin lte-sim -- \
    soak --subframes 200 --window 100 --out target/soak-smoke-b >/dev/null \
    || { echo "soak smoke: second run failed"; exit 1; }
[[ "$(LC_ALL=C ls target/soak-smoke-a | tr '\n' ' ')" == "SOAK.json SOAK.jsonl SOAK.om " ]] \
    || { echo "soak smoke: the output directory does not hold exactly SOAK.json, SOAK.jsonl and SOAK.om"; exit 1; }
for f in SOAK.json SOAK.jsonl SOAK.om; do
    cmp -s "target/soak-smoke-a/$f" "target/soak-smoke-b/$f" \
        || { echo "soak smoke: $f differs between identical runs"; exit 1; }
done

echo "==> deploy smoke (lte-sim deploy)"
# A multi-cell deployment must complete and write a byte-deterministic
# DEPLOY.json: the report is a pure function of the seed, so two runs
# at *different worker counts* must produce cmp-identical artifacts.
# Both configurations couple their cells, so users synthesized on the
# pool and the interference fields and injection run at both counts;
# the fingerprints are pinned to the values the coordinator-serial
# synthesis produced.
deploy_smoke() {
    local name="$1" fingerprint="$2"
    shift 2
    for workers in 2 1; do
        cargo run -q --offline --release -p lte-uplink --bin lte-sim -- \
            deploy "$@" --workers "$workers" --out "target/deploy-smoke-$name-w$workers" \
            | tail -n 4 \
            || { echo "deploy smoke: $name at $workers workers failed"; exit 1; }
    done
    for f in DEPLOY.json DEPLOY.om; do
        cmp -s "target/deploy-smoke-$name-w2/$f" "target/deploy-smoke-$name-w1/$f" \
            || { echo "deploy smoke: $name $f differs across worker counts"; exit 1; }
    done
    grep -q '"schema": "lte-sim-deploy-v1"' "target/deploy-smoke-$name-w2/DEPLOY.json" \
        || { echo "deploy smoke: $name DEPLOY.json has the wrong schema"; exit 1; }
    grep -q "\"fingerprint\": \"$fingerprint\"," "target/deploy-smoke-$name-w2/DEPLOY.json" \
        || { echo "deploy smoke: $name fingerprint is not $fingerprint"; exit 1; }
}
deploy_smoke macro 17b2ae15eaa2fc7e \
    --cells 3 --ues 10000 --subframes 8 --seed 7 --coupling-milli 5
deploy_smoke nbiot 8734bfb27b753adb \
    --cells 2 --ues 3000 --subframes 6 --seed 3 --cell-kind nbiot --coupling-milli 20

echo "==> serve smoke (lte-sim serve)"
# A short governed serve campaign under the seeded ingest chaos plan
# (an arrival stall, a 2x flood burst, malformed arrivals): the service
# must escalate reject → shed through the flood, keep its SLO
# accounting intact, drain cleanly (exit 0 — chaos-marked windows are
# exempt from the health gate, calm windows are not), and flush a
# complete SERVE.json + OpenMetrics pair.
serve_out="$(cargo run -q --offline --release -p lte-uplink --bin lte-sim -- \
    serve --subframes 140 --chaos --workers 2 --out target/serve-smoke)" \
    || { echo "serve smoke: campaign failed or a calm window violated its SLO"; exit 1; }
cargo run -q --offline --release -p lte-uplink --bin lte-sim -- \
    serve --subframes 140 --chaos --workers 2 --out target/serve-smoke-b >/dev/null \
    || { echo "serve smoke: second run failed"; exit 1; }
echo "$serve_out" | tail -n 6
[[ -s target/serve-smoke/SERVE.json ]] \
    || { echo "serve smoke: SERVE.json missing or empty"; exit 1; }
grep -q '"schema":"lte-sim-serve-v1"' target/serve-smoke/SERVE.json \
    || { echo "serve smoke: SERVE.json has the wrong schema"; exit 1; }
[[ -s target/serve-smoke/SERVE.om ]] \
    || { echo "serve smoke: SERVE.om missing or empty"; exit 1; }
echo "$serve_out" | grep -q "escalation: .* reject tick .* shed tick " \
    || { echo "serve smoke: the escalation ladder did not engage under the flood"; exit 1; }
echo "$serve_out" | grep -q "SLO: all .* calm windows within budget" \
    || { echo "serve smoke: a calm window violated its SLO"; exit 1; }
# Admission, escalation and every decoded bit are functions of the seed
# and the tick, so two same-seed runs at one worker count write the
# same SERVE.om and the same SERVE.json outside its wall-clock "host"
# object (the document's last member).
cmp -s target/serve-smoke/SERVE.om target/serve-smoke-b/SERVE.om \
    || { echo "serve smoke: SERVE.om differs between identical runs"; exit 1; }
for run in serve-smoke serve-smoke-b; do
    sed 's/,"host":{[^}]*}}$/}/' "target/$run/SERVE.json" > "target/$run/SERVE.nohost.json"
done
cmp -s target/serve-smoke/SERVE.nohost.json target/serve-smoke-b/SERVE.nohost.json \
    || { echo "serve smoke: SERVE.json outside host differs between identical runs"; exit 1; }

echo "==> telemetry record-cost gate (obs_overhead bench)"
cargo bench -q --offline -p lte-bench --bench obs_overhead | grep "hist_record:" \
    || { echo "telemetry record-cost gate failed"; exit 1; }

echo "all checks passed"
