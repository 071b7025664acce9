#!/usr/bin/env bash
# Tier-1 gate plus lint/format checks. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

# expect_exit CODE ARGS...: runs the release `repro` with ARGS and fails
# the gate unless it exits with CODE.
expect_exit() {
    local want=$1 status=0
    shift
    ./target/release/repro "$@" >/dev/null 2>&1 || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "ci: repro $* exited $status, expected $want" >&2
        exit 1
    fi
}

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q --workspace

echo "== cargo test --release -q -p mlscore-exec =="
# The executor's pool concurrency and panic tests and every SIMD tier's
# bit-exactness tests, again at optimized speed and codegen.
cargo test --release -q -p mlscore-exec

echo "== cargo test --release -q -p mlscore-analysis =="
# The analyzer's lexer, scan-table and worker-count proptests, again under
# optimized codegen: the build perfbench and `repro analyze` run.
cargo test --release -q -p mlscore-analysis

echo "== cargo test --release -q -p mlscore-telemetry =="
# The JSON escaper's and integer writer's proptests, again under optimized
# codegen: every export in the workspace, the analyzer's included, writes
# through them. The escaper skips clean 16-byte chunks whole; its
# chunk-boundary proptest puts an escape byte or a multi-byte scalar at
# every offset of a clean run and compares with the per-char reference.
cargo test --release -q -p mlscore-telemetry

echo "== cargo test --release -q -p mlscore-forest =="
# The trainer's sweep-versus-recount split-search proptest, again under
# optimized codegen: the build examples and `repro` train with.
cargo test --release -q -p mlscore-forest

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
# Every target: libraries, binaries, tests and examples.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors) =="
# Every default member's docs must build without a warning, so a deleted
# or private item cannot leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "== workspace lints (repro analyze) =="
# The determinism & hot-path lint pass (DESIGN.md sections 10 and 15): the
# token lints plus the interprocedural tier (P002 panic reachability, H002
# transitive hot allocation, D004 export determinism taint, A001 crate
# layering). Fails on any active finding: an inline `allow` with a reason
# is the only waiver. The whole pass — lex once, parse, build the call
# graph, run every lint — must stay interactive: budget 2 s wall clock.
# Build (untimed — per-package feature resolution can rebuild here), then
# time the binary itself so the budget measures analysis, not rustc.
cargo build --release -q -p mlscore-bench --bin repro
t0=$(date +%s%N)
status=0
./target/release/repro \
    analyze --json \
    --callgraph target/callgraph.a.json --dot target/callgraph.a.dot \
    >target/analyze.a.json || status=$?
t1=$(date +%s%N)
if [ "$status" -ne 0 ]; then
    # The JSON report went to a file: show the findings themselves.
    echo "ci: analyze exited $status; its findings:" >&2
    ./target/release/repro analyze >&2 || true
    exit 1
fi
analyze_ms=$(( (t1 - t0) / 1000000 ))
echo "ci: analyze took ${analyze_ms} ms; no active findings"
if [ "$analyze_ms" -gt 2000 ]; then
    echo "ci: analyze exceeded its 2000 ms budget (${analyze_ms} ms)" >&2
    exit 1
fi
# The findings report (whose P002/H002/D004 messages carry the call
# chains) and the call-graph exports are a pure function of the sources:
# a second run must reproduce them byte for byte.
cargo run --release -q -p mlscore-bench --bin repro -- \
    analyze --json --callgraph target/callgraph.b.json --dot target/callgraph.b.dot \
    >target/analyze.b.json
cmp target/analyze.a.json target/analyze.b.json
cmp target/callgraph.a.json target/callgraph.b.json
cmp target/callgraph.a.dot target/callgraph.b.dot
# The per-file stages run on every core the host offers; pinned to one
# core, the analyzer takes its one-worker path (no threads spawned) and
# must still write the same bytes.
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 ./target/release/repro \
        analyze --json --callgraph target/callgraph.c.json --dot target/callgraph.c.dot \
        >target/analyze.c.json
    cmp target/analyze.a.json target/analyze.c.json
    cmp target/callgraph.a.json target/callgraph.c.json
    cmp target/callgraph.a.dot target/callgraph.c.dot
else
    echo "ci: taskset not found; skipping the one-core analyze check"
fi
# ...and must contain the serving stack's load-bearing edges: the serving
# benchmark entering the engine, and the engine's event loop.
grep -q '"bench::serve_bench::run_point" -> "serve::engine::ServeEngine::run"' \
    target/callgraph.a.dot
grep -q '"serve::engine::ServeEngine::run" -> "serve::engine::EngineSession::finish"' \
    target/callgraph.a.dot
grep -q '"serve::engine::EngineSession::finish" -> "serve::engine::EngineSession::step_all"' \
    target/callgraph.a.dot
# The gate's failure path: a one-file workspace whose one finding is an
# unwaived P001 fails it, and the same file with an inline waiver passes.
# There is no second way to waive a finding: a baseline flag is an
# unknown option.
fixture=target/analyze-fixture
rm -rf "$fixture"
mkdir -p "$fixture/crates/serve/src"
panics='pub fn f(x: Option<u32>) -> u32 { x.unwrap() }'
printf '%s\n' "$panics" >"$fixture/crates/serve/src/lib.rs"
expect_exit 1 analyze --root "$fixture"
printf '%s\n' '// analyze: allow(P001, reason="fixture")' "$panics" \
    >"$fixture/crates/serve/src/lib.rs"
expect_exit 0 analyze --root "$fixture"
expect_exit 2 analyze --check-baseline
# Out-of-line test modules (`#[cfg(test)] mod name;`) are test code as a
# whole: no fn of theirs may enter the call graph.
for test_only in analysis::lexer::reference:: analysis::lints::reference:: \
    analysis::sites::reference:: data::csv_props::; do
    if grep -qF "\"$test_only" target/callgraph.a.dot; then
        echo "ci: the call graph names a fn from a test-only file ($test_only)" >&2
        exit 1
    fi
done

echo "== perfbench smoke (analyzer benchmark, short runs per workload) =="
# perfbench is a workspace of its own, so the workspace build, tests and
# clippy above never compile it against the analyzer's public API. Run the
# benchmark command from BENCHMARK.json briefly on every workload, untraced
# and traced; each run must end in a correct verdict with no failed
# repeats. The traced verdict composes the layers itself (FileScan::of,
# run_lints_all, CallGraph::build, run_interproc), so it checks that the
# public per-layer API still gives the whole-workspace verdict. One more
# untraced run at seed 7 checks a second generated workspace against the
# generator's answer.
# perfbench [PREFIX...] -- WORKLOAD SEED TRACE: runs one 1-second perfbench
# run under PREFIX (a command such as `taskset -c 0`, or nothing) and
# fails the gate unless it reports a correct run.
perfbench() {
    local prefix=()
    while [ "$1" != -- ]; do
        prefix+=("$1")
        shift
    done
    local w=$2 seed=$3 trace=$4 last
    last=$("${prefix[@]}" cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds 1 --trace "$trace" | tail -n 1)
    echo "perfbench ${prefix[*]:+${prefix[*]} }$w --seed $seed --trace $trace: $last"
    case "$last" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *)
            echo "ci: perfbench ${prefix[*]:+${prefix[*]} }$w --seed $seed --trace $trace did not report a correct run: $last" >&2
            exit 1
            ;;
    esac
}
for w in tokens callgraph waivers; do
    for run in 1:0 1:1 7:0; do
        perfbench -- "$w" "${run%:*}" "${run#*:}"
    done
done
# Pinned to one core, the analyzer takes its one-worker path (no threads
# spawned): one more untraced run per workload there.
if command -v taskset >/dev/null 2>&1; then
    for w in tokens callgraph waivers; do
        perfbench taskset -c 0 -- "$w" 1 0
    done
else
    echo "ci: taskset not found; skipping the one-core perfbench runs"
fi

echo "== ab.sh smoke (one pair of 1-second perfbench runs of one binary) =="
# ab.sh compares two perfbench binaries in alternating pairs and prints
# one summary line per side. Run against itself once, it must print both.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
pb="${CARGO_TARGET_DIR:-perfbench/target}/release/mlscore-perfbench"
./ab.sh "$pb" "$pb" tokens 1 1 1 >target/ab.txt
cat target/ab.txt
grep -q '^ab: parent tokens seed 1: latency_ms median .* won [0-9]*/1 scaled, [0-9]*/1 raw$' \
    target/ab.txt
grep -q '^ab: change tokens seed 1: latency_ms median .* won [0-9]*/1 scaled, [0-9]*/1 raw$' \
    target/ab.txt

echo "== bench smoke (repro bench --quick, detected, avx2 and portable SIMD tiers) =="
# Quick measured sweep into a scratch file: exercises the wall-clock
# harness end to end — the pointer-tree and SIMD kernels, the warm+cold
# artifact-cache pair and the fused-vs-staged shmoo — and self-validates
# the JSON it writes (every run bit-exact with a simd_records_per_sec
# throughput, cache block with hits >= 1 and cold >= warm, fused block).
cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --quick --out target/BENCH_cpu_scoring.quick.json
cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --check target/BENCH_cpu_scoring.quick.json
# The same harness with the SIMD walker forced down to its portable
# fallback tier: the only flat-image kernel must stay bit-exact on the
# code path hosts without AVX2 run.
MLSCORE_SIMD=portable cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --quick --out target/BENCH_cpu_scoring.quick.portable.json
cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --check target/BENCH_cpu_scoring.quick.portable.json
grep -q '"simd_level": "portable"' target/BENCH_cpu_scoring.quick.portable.json
# Forced down to AVX2: on an AVX-512 host the detected run takes the
# AVX-512 walkers for the 8- and 4-group strides, so only this run covers
# the AVX2 walker's wide strides end to end (a host without AVX2 runs
# portable here, which the validator accepts the same way).
MLSCORE_SIMD=avx2 cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --quick --out target/BENCH_cpu_scoring.quick.avx2.json
cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --check target/BENCH_cpu_scoring.quick.avx2.json
# The quick runs above also exercise the fused-vs-staged shmoo: --check
# has already enforced (schema v4+) that every fused cell is bit-exact and
# that the per-chunk handoff eliminates >= 80% of the staged marshal +
# pre-processing tax. Assert the block actually made it into the output.
grep -q '"fused"' target/BENCH_cpu_scoring.quick.json
grep -q '"eliminated_frac"' target/BENCH_cpu_scoring.quick.json
# The committed trajectory must stay parseable, non-empty, and carry a
# valid cache-stats block and the fused shmoo.
cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --check BENCH_cpu_scoring.json
grep -q '"fused"' BENCH_cpu_scoring.json
# Regression diff self-check: a report diffed against itself is clean, so
# the gate only ever fires on real throughput loss. The quick run diffed
# against itself additionally covers the per-metric v5 cells.
cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --diff BENCH_cpu_scoring.json BENCH_cpu_scoring.json
cargo run --release -q -p mlscore-bench --bin repro -- \
    bench --diff target/BENCH_cpu_scoring.quick.json \
                 target/BENCH_cpu_scoring.quick.json

echo "== serve smoke (repro serve --quick) =="
# Quick load sweep through the discrete-event serving engine into a scratch
# file. The validator enforces the effects the subsystem exists to model:
# at least one coalesced batch, at least one shed request under overload,
# and FPGA throughput with coalescing on no worse than off at the same
# offered load.
cargo run --release -q -p mlscore-bench --bin repro -- \
    serve --quick --out target/BENCH_serving.quick.json \
    --trace-out target/trace_serve.json
cargo run --release -q -p mlscore-bench --bin repro -- \
    serve --check target/BENCH_serving.quick.json
# The serving timeline must carry the per-device contention lane and the
# per-request queue-wait spans.
grep -q '"device FPGA"' target/trace_serve.json
grep -q '"queue wait"' target/trace_serve.json
# ...and the causal flow events linking each coalesced request's queue-wait
# span (flow start, ph:"s") to the device pass that scored it (flow finish,
# ph:"f" with enclosing-slice binding).
grep -q '"ph":"s","cat":"flow","name":"request"' target/trace_serve.json
grep -q '"ph":"f","bp":"e","cat":"flow","name":"request"' target/trace_serve.json
grep -q '"device pass"' target/trace_serve.json

echo "== serving report regeneration (repro serve --out, full) =="
# The committed report is exactly what `repro serve --out` writes: a full
# regeneration (simulated time, ~1 s) must reproduce it byte for byte.
cargo run --release -q -p mlscore-bench --bin repro -- \
    serve --out target/BENCH_serving.full.json >/dev/null
cmp target/BENCH_serving.full.json BENCH_serving.json
cargo run --release -q -p mlscore-bench --bin repro -- \
    serve --check BENCH_serving.json

echo "== report smoke (repro report --quick twice, full once) =="
# The run report is a pure function of (seed, options): rendering it twice
# must produce byte-identical JSON, and `--out` validates every document
# before writing it, exiting 1 on failure (>= 2 windows, per-class
# attainment in [0, 1], whole non-negative per-class counts with shed equal
# to rejected, >= 1 slowest-request breakdown). The full 500-query report
# is validated the same way.
cargo run --release -q -p mlscore-bench --bin repro -- \
    report --quick --out target/run_report.a.json >/dev/null
cargo run --release -q -p mlscore-bench --bin repro -- \
    report --quick --out target/run_report.b.json >/dev/null
cmp target/run_report.a.json target/run_report.b.json
# The quick run overloads the FPGA, so it must raise a budget-burn alert:
# only an alert object carries "burn_rate" (the "alerts" key is written
# even when the list is empty).
grep -q '"burn_rate"' target/run_report.a.json
cargo run --release -q -p mlscore-bench --bin repro -- \
    report --out target/run_report.full.json >/dev/null

echo "== ablations smoke (repro ablations, twice) =="
# The ablation tables are a pure function of the calibration: two runs
# must print the same bytes, and every study must be present.
cargo run --release -q -p mlscore-bench --bin repro -- ablations >target/ablations.a.txt
cargo run --release -q -p mlscore-bench --bin repro -- ablations >target/ablations.b.txt
cmp target/ablations.a.txt target/ablations.b.txt
for a in A1 A2 A3 A5 A6 A7; do
    grep -q -- "--- Ablation $a:" target/ablations.a.txt
done
grep -q 'quantized (16-bit) layout' target/ablations.a.txt

echo "== scheduler smoke (repro scheduler, twice) and every example =="
# Policy regret and the trace replay are pure functions of the cost
# models: two runs must print the same bytes, with both sections present.
cargo run --release -q -p mlscore-bench --bin repro -- scheduler >target/scheduler.a.txt
cargo run --release -q -p mlscore-bench --bin repro -- scheduler >target/scheduler.b.txt
cmp target/scheduler.a.txt target/scheduler.b.txt
grep -q '== Scheduler policy regret' target/scheduler.a.txt
grep -q '== Trace replay: latency percentiles' target/scheduler.a.txt
# Every example must run to completion, not just compile under clippy:
# they are the library's public-API walkthroughs (forest types, backends,
# the scheduler, the pipeline and tracing).
for ex in accelerator_shmoo analyst_workflow fpga_deep_dive offload_advisor \
    query_mix_simulator quickstart trace_query train_and_deploy; do
    cargo run --release -q --example "$ex" >"target/example.$ex.txt"
done

echo "== trace smoke (every backend x staged/fused x cold/warm, twice each) =="
# Every backend's traced estimate is a pure function of its cost model:
# two runs of each combination must write the same bytes.
for be in cpu sklearn onnx1 gpu gpu-rapids fpga; do
    for fused in "" --fused; do
        for phase in --cold --warm; do
            for run in a b; do
                ./target/release/repro trace $phase $fused \
                    --out "target/trace_${be}${fused}${phase}.$run.json" higgs 128 1m "$be" \
                    >/dev/null
            done
            cmp "target/trace_${be}${fused}${phase}.a.json" "target/trace_${be}${fused}${phase}.b.json"
        done
    done
done
# A backend that rejects the model is a usage error (exit 2), not a panic.
expect_exit 2 trace iris 128 1k gpu-rapids
# Both halves of the two-phase split must render a timeline.
cargo run --release -q -p mlscore-bench --bin repro -- \
    trace --cold --out target/trace_cold.json >/dev/null
cargo run --release -q -p mlscore-bench --bin repro -- \
    trace --warm --out target/trace_warm.json >/dev/null
grep -q '"model deserialization"' target/trace_cold.json
grep -q '"artifact cache hit"' target/trace_warm.json
if grep -q '"model deserialization"' target/trace_warm.json; then
    echo "ci: warm trace unexpectedly contains a cold-only span" >&2
    exit 1
fi
# The fused timeline must collapse the marshal stages into a per-chunk
# handoff and carry one "fused chunk" detail span per pull.
cargo run --release -q -p mlscore-bench --bin repro -- \
    trace --fused --warm --out target/trace_fused.json higgs 128 100k sklearn \
    >/dev/null
grep -q '"fused chunk"' target/trace_fused.json
grep -q '"chunk handoff"' target/trace_fused.json
if grep -q '"data preprocessing"' target/trace_fused.json; then
    echo "ci: fused trace unexpectedly charges a data-preprocessing span" >&2
    exit 1
fi
# The cold fused timeline deserializes the model in process, then hands
# off chunks: no marshal stage in either direction.
cargo run --release -q -p mlscore-bench --bin repro -- \
    trace --fused --out target/trace_fused_cold.json >/dev/null
grep -q '"model deserialization"' target/trace_fused_cold.json
grep -q '"chunk handoff"' target/trace_fused_cold.json
if grep -q '"marshal' target/trace_fused_cold.json; then
    echo "ci: cold fused trace unexpectedly contains a marshal span" >&2
    exit 1
fi

echo "== repro exit codes (usage errors exit 2, unreadable files exit 1) =="
# Every subcommand parses through one grammar: an unknown flag or a flag
# short of its values is a usage error, never a panic or a silent default.
for cmd in trace bench serve report; do
    expect_exit 2 "$cmd" --no-such-flag
done
expect_exit 2 bench --diff BENCH_cpu_scoring.json
expect_exit 1 bench --check target/no-such-dir/BENCH_cpu_scoring.json

echo "ci: all checks passed"
