#!/usr/bin/env bash
# Reproduce everything: build, test, regenerate every figure/table, run the
# ablations and the self-checking reproduction gate.
#
#   scripts/reproduce.sh [--outputs-only] [build-dir]
#
# results/SHA256SUMS checksums the seeded, deterministic outputs: every
# fig*, ablation* and tab_bloom_config table, ext_failure_recovery,
# ext_crash_latency and examples/replicated_failover. A refactor's
# differential proof is then a diff of that file between two trees.
# --outputs-only skips the tests, the timing-dependent benches and the
# gate, and writes just that set.
set -euo pipefail

OUTPUTS_ONLY=0
if [[ "${1:-}" == "--outputs-only" ]]; then
  OUTPUTS_ONLY=1
  shift
fi
BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== configure & build =="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"

# run <binary>: writes its stdout to results/<name>.txt.
run() {
  local name
  name="$(basename "$1")"
  echo "-- $name"
  "$1" > "results/$name.txt" 2> /dev/null || {
    echo "FAILED: $name" >&2
    exit 1
  }
}

mkdir -p results
if [[ "$OUTPUTS_ONLY" == 1 ]]; then
  echo "== deterministic outputs =="
  for bench in "$BUILD_DIR"/bench/{fig*,ablation*,tab_bloom_config} \
               "$BUILD_DIR"/bench/ext_{failure_recovery,crash_latency}; do
    run "$bench"
  done
else
  echo "== tests =="
  ctest --test-dir "$BUILD_DIR" --output-on-failure

  echo "== figures, tables, ablations, microbenches =="
  for bench in "$BUILD_DIR"/bench/*; do
    [[ -f "$bench" && -x "$bench" ]] || continue  # skip CMake's own files
    run "$bench"
  done
fi
run "$BUILD_DIR/examples/replicated_failover"
(cd results && sha256sum fig*.txt ablation*.txt tab_bloom_config.txt \
   ext_failure_recovery.txt ext_crash_latency.txt \
   replicated_failover.txt > SHA256SUMS)

if [[ "$OUTPUTS_ONLY" == 0 ]]; then
  echo "== reproduction gate =="
  "$BUILD_DIR"/tools/repro-check
fi

echo
echo "All outputs written to results/. Key files:"
echo "  results/fig09_response_time.txt   (the headline Fig. 9 table)"
echo "  results/fig11_total_energy.txt    (energy savings)"
echo "  results/SHA256SUMS                (checksums of the deterministic set)"
