#!/usr/bin/env bash
# Repo hygiene + sanitizer gate:
#   1. fails if generated build trees are tracked by git,
#   2. builds with AddressSanitizer + UBSan (plus float-cast-overflow) and
#      runs the full tier-1 suite, then the trace reader's differential
#      fuzz over 20 more seed blocks,
#   3. builds with ThreadSanitizer and runs the obs concurrency tests, the
#      exec thread-pool / slot-runner / fleet determinism suite, the
#      compiled-catalog / staged-pipeline suites (many workers reading the
#      one shared compiled snapshot and scoring one curve), the serve
#      suite (admission queue, deadlines, RCU snapshot swaps), the stream
#      suite (readers racing the appender on a customer window), and the
#      assess-batch golden (workers reading, assessing and rendering their
#      own slots at up to --jobs 8).
# Usage: tools/check.sh [build-dir] (default build-asan; the TSan tree
# lands next to it with a -tsan suffix).
#
# Bench-regression mode: tools/check.sh --bench [build-dir] (default
# build) builds bench_perf_engine, runs the assessment + serve-overload +
# cross-target + kernel benchmarks, and compares the per-curve
# evaluation-cost counters (ppm.samples_scanned, plus the per-target
# ppm.samples_scanned.<target-id> splits), the snapshot-compile count
# (catalog.targets_compiled, exact) and the serving-path admission
# counters (serve.admitted/shed/expired) against the committed
# BENCH_pipeline.json
# via tools/bench_check.py. Counter-based, so it holds on any machine;
# the one wall-time gate is the within-run SIMD/scalar mark-kernel ratio.
# Every run's JSON context names its host: num_cpus, kernel_isa,
# doppler_build_type and git_sha.
# After an INTENDED cost change, refresh the baseline from a Release build:
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
#   cmake --build build -j --target bench_perf_engine
#   ./build/bench/bench_perf_engine \
#     --benchmark_filter='BM_PipelineAssess|BM_CompiledAssess|BM_CrossTargetCurve|BM_ServeOverload|BM_FlightRecorderOverhead|BM_MarkKernel' \
#     --benchmark_context=git_sha=$(git rev-parse HEAD) \
#     --benchmark_out=BENCH_pipeline.json --benchmark_out_format=json
#
# Soak mode: tools/check.sh --soak [build-dir] (default build-soak)
# builds the serve, stream and CLI suites under ThreadSanitizer, repeats
# the deterministic soaks (concurrent submitters + snapshot swaps +
# pre-expired deadlines; stream readers racing the appender) so races in
# the serving and streaming paths fail loudly, and repeats the CLI cases
# and the assess-batch golden at 4x oversubscription. It then builds the
# whole suite in a plain tree beside the soak tree (<build-dir>-plain) and
# repeats all of it at 4x oversubscription, so a test that shares files
# across processes or depends on scheduling fails here, not at random.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

if [[ "${1:-}" == "--bench" ]]; then
  bench_build_dir="${2:-${repo_root}/build}"
  cmake -B "${bench_build_dir}" -S "${repo_root}"
  cmake --build "${bench_build_dir}" -j"$(nproc)" --target bench_perf_engine
  fresh_json="$(mktemp --suffix=.json)"
  trap 'rm -f "${fresh_json}"' EXIT
  "${bench_build_dir}/bench/bench_perf_engine" \
    --benchmark_filter='BM_PipelineAssess|BM_CompiledAssess|BM_CrossTargetCurve|BM_ServeOverload|BM_FlightRecorderOverhead|BM_MarkKernel' \
    --benchmark_context=git_sha="$(git -C "${repo_root}" rev-parse HEAD)" \
    --benchmark_out="${fresh_json}" --benchmark_out_format=json
  # Counter comparison against the committed baseline, plus the kernel
  # layer's within-run wall-time gate: the dispatched SIMD mark kernel
  # (the Eq. 1 scan's inner loop) must beat its forced-scalar twin by
  # >=1.25x wherever a SIMD variant exists (the pair is skipped on
  # scalar-only hosts).
  python3 "${repo_root}/tools/bench_check.py" \
    "${repo_root}/BENCH_pipeline.json" "${fresh_json}" \
    --speedup 'BM_MarkKernelSimd/4096:BM_MarkKernelScalar/4096:1.25'
  exit 0
fi

if [[ "${1:-}" == "--soak" ]]; then
  soak_dir="${2:-${repo_root}/build-soak}"
  cmake -B "${soak_dir}" -S "${repo_root}" \
    -DDOPPLER_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${soak_dir}" -j"$(nproc)" \
    --target serve_test stream_test cli_forecast_test golden_report_test
  # The whole serve suite runs once (queue saturation, deadline expiry,
  # hot swap), then the overload soak repeats to widen the interleaving
  # space TSan observes. The stream soak does the same for readers racing
  # the customer-window appender.
  TSAN_OPTIONS="halt_on_error=1" "${soak_dir}/tests/serve_test"
  TSAN_OPTIONS="halt_on_error=1" "${soak_dir}/tests/serve_test" \
    --gtest_filter='*Soak*' --gtest_repeat=5
  TSAN_OPTIONS="halt_on_error=1" "${soak_dir}/tests/stream_test" \
    --gtest_filter='*Soak*' --gtest_repeat=5
  # ctest runs every case in its own process: many CLI cases at once, each
  # repeated, must never see another process's files.
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "${soak_dir}" \
    --output-on-failure \
    -R 'CliFlowTest|CliRunTest|GoldenReportTest.AssessBatchMatchesGolden' \
    -j$((4 * $(nproc))) --repeat until-fail:20
  # The whole tier-1 suite, unsanitized so it runs at full speed, five
  # times over at 4x oversubscription.
  plain_dir="${soak_dir}-plain"
  cmake -B "${plain_dir}" -S "${repo_root}"
  cmake --build "${plain_dir}" -j"$(nproc)"
  ctest --test-dir "${plain_dir}" --output-on-failure \
    -j$((4 * $(nproc))) --repeat until-fail:5
  exit 0
fi

build_dir="${1:-${repo_root}/build-asan}"
tsan_dir="${build_dir}-tsan"

# Generated trees must never be committed; .gitignore covers build*/ but a
# force-add would slip through silently without this.
tracked_build_files="$(git -C "${repo_root}" ls-files 'build*/' | wc -l)"
if [[ "${tracked_build_files}" -ne 0 ]]; then
  echo "error: ${tracked_build_files} generated build file(s) are tracked:" >&2
  git -C "${repo_root}" ls-files 'build*/' | head >&2
  exit 1
fi

# GCC leaves float-cast-overflow out of "undefined"; the trace reader casts
# timestamps to grid slots and cadences, so it is named here.
cmake -B "${build_dir}" -S "${repo_root}" \
  -DDOPPLER_SANITIZE="address;undefined;float-cast-overflow" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${build_dir}" -j"$(nproc)"

# halt_on_error makes UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"
ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"

# The trace reader's differential fuzz at a larger budget: tier-1 runs one
# block of seeds, each repeat here runs the next block.
"${build_dir}/tests/trace_reader_oracle_test" --gtest_repeat=20

# Forced-scalar pass: the same kernel-touching suites with the dispatcher
# pinned to the scalar reference (DOPPLER_KERNEL=scalar), so a host whose
# SIMD path masks a scalar bug — or vice versa — still fails here. The
# golden suite refits the shipped group models, so the compiled constants
# are re-derived under both kernel ISAs; the recommender suite holds the
# bootstrap-confidence oracle, so windowed reruns are checked under both.
DOPPLER_KERNEL=scalar "${build_dir}/tests/kernel_test"
DOPPLER_KERNEL=scalar "${build_dir}/tests/stream_test"
DOPPLER_KERNEL=scalar "${build_dir}/tests/property_test"
DOPPLER_KERNEL=scalar "${build_dir}/tests/golden_report_test"
DOPPLER_KERNEL=scalar "${build_dir}/tests/core_recommender_test"

# ThreadSanitizer pass over the concurrency-sensitive suites: the
# lock-free metrics/tracer tests and the exec thread-pool / parallel fleet
# assessment tests. Only these targets are built, so run the binaries
# directly (ctest discovery would also cover targets never built in this
# tree).
cmake -B "${tsan_dir}" -S "${repo_root}" \
  -DDOPPLER_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${tsan_dir}" -j"$(nproc)" \
  --target obs_test obs_flight_test exec_test kernel_test \
  compiled_catalog_test target_test \
  pipeline_stage_test serve_test stream_test golden_report_test
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/obs_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/obs_flight_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/exec_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/kernel_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/compiled_catalog_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/target_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/pipeline_stage_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/serve_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/stream_test"
TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/golden_report_test" \
  --gtest_filter='GoldenReportTest.AssessBatchMatchesGoldenAtEveryJobCount'
