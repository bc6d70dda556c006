// Microbenchmarks — placement lookup cost. The web servers hash every user
// request through the placement (§II objective 3: "efficient"), so lookup
// latency sits on the request fast path.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "hashring/modulo_placement.h"
#include "hashring/proteus_placement.h"
#include "hashring/random_vn_placement.h"

namespace {

using namespace proteus;
using namespace proteus::ring;

void BM_ProteusLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ProteusPlacement p(n);
  Rng rng(1);
  int active = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.server_for(rng.next_u64(), active));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ProteusLookup)->Arg(10)->Arg(40)->Arg(100);

void BM_ProteusLookupHalfActive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ProteusPlacement p(n);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.server_for(rng.next_u64(), n / 2));
  }
}
BENCHMARK(BM_ProteusLookupHalfActive)->Arg(10)->Arg(100);

void BM_ModuloLookup(benchmark::State& state) {
  ModuloPlacement p(10);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.server_for(rng.next_u64(), 10));
  }
}
BENCHMARK(BM_ModuloLookup);

void BM_RandomRingLookup(benchmark::State& state) {
  const int vnodes = static_cast<int>(state.range(0));
  RandomVirtualNodePlacement p(10, vnodes, 0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.server_for(rng.next_u64(), 10));
  }
}
BENCHMARK(BM_RandomRingLookup)->Arg(5)->Arg(50)->Arg(500);

void BM_RandomRingLookupFewActive(benchmark::State& state) {
  // Worst case for the skip-scan: most virtual nodes belong to inactive
  // servers.
  RandomVirtualNodePlacement p(10, 50, 0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.server_for(rng.next_u64(), 1));
  }
}
BENCHMARK(BM_RandomRingLookupFewActive);

void BM_ProteusConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ProteusPlacement p(n);
    benchmark::DoNotOptimize(p.num_virtual_nodes());
  }
}
BENCHMARK(BM_ProteusConstruction)->Arg(10)->Arg(40)->Arg(100);

void BM_MigrationFraction(benchmark::State& state) {
  ProteusPlacement p(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.migration_fraction(20, 21));
  }
}
BENCHMARK(BM_MigrationFraction);

}  // namespace
