#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the full test suite twice —
# once with the default pool size and once with AUTOCTS_NUM_THREADS=4 so
# the parallel kernel code paths (src/common/parallel.*) are exercised
# under test even on single-core machines.
#
# A third targeted pass re-runs the allocation-sensitive suites with
# AUTOCTS_TENSOR_POOL=0 (tensor buffer pool disabled, see
# src/common/buffer_pool.h) so the unpooled fallback path stays green and
# the pooled/unpooled parity guarantee is checked from both sides.
#
# The crash/corruption suites (checkpoint_test, numerics_test,
# eval_scheduler_test, and sealed_format_test, ctest label "faultinject"),
# the injected-I/O-failure and cancellation suites (fault_io_test and
# cancellation_test, label "faultio"), the buffer-pool suite (label
# "pool"), the end-to-end pipeline suite (label "e2e", which drives the
# real CLI binary through kill/resume and signal/resume cycles), the
# forecast-serving suites
# (serve_test, serve_golden_test, and bounded_queue_test, label "serve",
# whose server threads, promise/future handoffs, and artifact corruption
# sweeps are lifetime-bug habitat), the network suites
# (wire_codec_test and net_test, label "net", whose hostile-bytes fuzz
# loops, raw-socket disconnect cases, and connection-handler threads are
# exactly what ASan is for), the kernel suites (tensor_test,
# property_test and parallel_test, label "kernels", whose strided walks and
# folded matmuls are raw offset arithmetic), and the codec suites
# (common_test, core_genotype_test, observability_test, wire_codec_test and
# sealed_format_test, label "codec", whose readers keep views into the
# buffers they parse) are additionally run under AddressSanitizer
# in a separate build directory: their kill/resume, fault-injection, retry/rollback,
# and storage-recycling paths are exactly where lifetime bugs would hide.
# Set AUTOCTS_SKIP_ASAN=1 to skip that pass (e.g. on machines without ASan
# runtimes).
#
# The observability suites (observability_test and determinism_test, ctest
# label "observability") plus parallel_test, buffer_pool_test,
# bounded_queue_test, eval_scheduler_test, and cancellation_test are
# likewise run under ThreadSanitizer: the tracer's thread-local ring
# buffers, the metrics registry, the pool's per-bucket free lists, the eval
# scheduler's worker threads + completion inbox, and eval workers reading
# the caller's cancellation token while it is cancelled mid-batch (only
# cancellation_test's EvalCancellation cases do that) are exercised
# concurrently, and TSan is the tool that proves those paths race-free.
# Set AUTOCTS_SKIP_TSAN=1 to skip.
#
# The codec suites (label "codec") also run under UndefinedBehaviorSanitizer:
# the CRC, the hex-float writer and parser and the wire codec are shifts, bit
# casts and table lookups indexed by untrusted bytes. This pass always runs,
# unless AUTOCTS_SANITIZE already sanitizes the whole build.
#
# Optional: AUTOCTS_SANITIZE=thread|address|undefined ./tools/tier1_verify.sh
# runs the whole build under the matching sanitizer (separate build
# directory).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
if [[ -n "${AUTOCTS_SANITIZE:-}" ]]; then
  BUILD_DIR="build-${AUTOCTS_SANITIZE}"
  CMAKE_ARGS+=("-DAUTOCTS_SANITIZE=${AUTOCTS_SANITIZE}")
fi

cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "${BUILD_DIR}" -j"$(nproc)"
# Every kernel rounds each multiply and each add on its own, so the AVX2 and
# baseline clones of the matmul micro-kernel agree with MatMulNaive bit for
# bit. A fused multiply-add anywhere in the tensor library breaks that.
TENSOR_DISASM="$(objdump -d "${BUILD_DIR}/src/libautocts_tensor.a")"
if grep -E 'vfn?m(add|sub)' <<<"${TENSOR_DISASM}"; then
  echo "FMA instruction in ${BUILD_DIR}/src/libautocts_tensor.a" >&2
  exit 1
fi
# An explicit job count: ctest 3.25 reads a bare trailing -j as serial.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"$(nproc)"
AUTOCTS_NUM_THREADS=4 ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"$(nproc)"

# Pool-off parity pass: the kill switch must leave every result unchanged.
# Scoped to the suites that exercise tensor storage hardest; bench_alloc is
# excluded (its whole point is comparing pool on vs off internally).
AUTOCTS_TENSOR_POOL=0 ctest --test-dir "${BUILD_DIR}" \
    -R 'tensor_test|autograd_test|buffer_pool_test|core_search_test|determinism_test' \
    --output-on-failure

# ASan pass over the fault-injection + pool suites (skipped when the main
# build is already sanitized, or when explicitly disabled).
if [[ -z "${AUTOCTS_SANITIZE:-}" && -z "${AUTOCTS_SKIP_ASAN:-}" ]]; then
  cmake -B build-address -S . -DAUTOCTS_SANITIZE=address
  cmake --build build-address -j"$(nproc)" --target checkpoint_test \
      --target numerics_test --target sealed_format_test \
      --target buffer_pool_test \
      --target eval_scheduler_test --target pipeline_e2e_test \
      --target fault_io_test --target cancellation_test \
      --target serve_test --target serve_golden_test \
      --target bounded_queue_test --target wire_codec_test \
      --target net_test --target tensor_test --target property_test \
      --target parallel_test --target common_test \
      --target core_genotype_test --target observability_test
  ctest --test-dir build-address \
      -L 'faultinject|faultio|pool|e2e|serve|net|kernels|codec' \
      --output-on-failure
  # With the pool disabled every release is a real free, restoring ASan's
  # use-after-free precision on tensor storage.
  AUTOCTS_TENSOR_POOL=0 ctest --test-dir build-address -L pool \
      --output-on-failure
fi

# TSan pass over the observability suite (+ parallel_test, which drives
# the same thread pool the tracer instruments, buffer_pool_test for the
# pool's cross-thread acquire/release paths, bounded_queue_test for the
# MPMC queue under the forecast server, and cancellation_test for a batch
# cancelled while its eval workers run).
if [[ -z "${AUTOCTS_SANITIZE:-}" && -z "${AUTOCTS_SKIP_TSAN:-}" ]]; then
  cmake -B build-thread -S . -DAUTOCTS_SANITIZE=thread
  cmake --build build-thread -j"$(nproc)" --target observability_test \
      --target determinism_test --target parallel_test \
      --target buffer_pool_test --target eval_scheduler_test \
      --target bounded_queue_test --target cancellation_test
  AUTOCTS_NUM_THREADS=4 ctest --test-dir build-thread \
      -R 'observability_test|determinism_test|parallel_test|buffer_pool_test|eval_scheduler_test|bounded_queue_test|cancellation_test' \
      --output-on-failure
fi

# UBSan pass over the codec suites.
if [[ -z "${AUTOCTS_SANITIZE:-}" ]]; then
  cmake -B build-undefined -S . -DAUTOCTS_SANITIZE=undefined
  cmake --build build-undefined -j"$(nproc)" --target common_test \
      --target core_genotype_test --target observability_test \
      --target wire_codec_test --target sealed_format_test
  ctest --test-dir build-undefined -L codec --output-on-failure
fi
