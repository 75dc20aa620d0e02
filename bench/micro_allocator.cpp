// google-benchmark microbenchmarks for the allocator tower — the hot path
// of both the ground-truth executor and xMem's replay (§6.1 discusses the
// simulation phase's cost).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "alloc/backend_registry.h"
#include "alloc/caching_allocator.h"
#include "alloc/cuda_driver_sim.h"
#include "baselines/basic_bfc.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace {

using xmem::alloc::CachingAllocatorSim;
using xmem::alloc::SimulatedCudaDriver;
using xmem::util::kGiB;
using xmem::util::kMiB;

void BM_RoundSize(benchmark::State& state) {
  std::int64_t size = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CachingAllocatorSim::round_size(size));
    size = (size * 7 + 13) % (64 * kMiB) + 1;
  }
}
BENCHMARK(BM_RoundSize);

/// Steady-state alloc/free pairs of a fixed size (pure cache-hit path).
void BM_AllocFreeCacheHit(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  SimulatedCudaDriver driver(8 * kGiB);
  CachingAllocatorSim allocator(driver);
  allocator.free(allocator.allocate(size).id);  // warm the segment
  for (auto _ : state) {
    const auto outcome = allocator.allocate(size);
    allocator.free(outcome.id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocFreeCacheHit)->Arg(512)->Arg(64 * 1024)->Arg(4 * kMiB)
    ->Arg(64 * kMiB);

/// Random training-like churn: mixed sizes, ~55% allocs, with splitting and
/// coalescing exercised continuously.
void BM_AllocFreeChurn(benchmark::State& state) {
  SimulatedCudaDriver driver(8 * kGiB);
  CachingAllocatorSim allocator(driver);
  xmem::util::Rng rng(42);
  std::vector<xmem::alloc::BlockId> live;
  for (auto _ : state) {
    if (live.empty() || rng.next_bool(0.55)) {
      const auto outcome = allocator.allocate(
          1 + static_cast<std::int64_t>(rng.next_below(8 * kMiB)));
      if (!outcome.oom) live.push_back(outcome.id);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      allocator.free(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  for (auto id : live) allocator.free(id);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocFreeChurn);

/// DNNMem's single-level BFC on the same churn for comparison.
void BM_BasicBfcChurn(benchmark::State& state) {
  xmem::baselines::BasicBfcAllocator bfc;
  xmem::util::Rng rng(42);
  std::vector<std::int64_t> live;
  for (auto _ : state) {
    if (live.empty() || rng.next_bool(0.55)) {
      live.push_back(
          bfc.alloc(1 + static_cast<std::int64_t>(rng.next_below(8 * kMiB))));
    } else {
      const std::size_t pick = rng.next_below(live.size());
      bfc.free(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  for (auto id : live) bfc.free(id);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BasicBfcChurn);

/// The same churn against every registered backend through the generic
/// fw::AllocatorBackend interface — the apples-to-apples policy comparison,
/// plus a measure of the virtual-dispatch overhead vs. BM_AllocFreeChurn.
/// Registered dynamically in main() so new registry entries are benchmarked
/// without touching this file.
void BM_RegistryChurn(benchmark::State& state, const std::string& name) {
  SimulatedCudaDriver driver(8 * kGiB);
  const auto backend = xmem::alloc::make_backend(name, driver);
  xmem::util::Rng rng(42);
  std::vector<std::int64_t> live;
  for (auto _ : state) {
    if (live.empty() || rng.next_bool(0.55)) {
      const auto outcome = backend->backend_alloc(
          1 + static_cast<std::int64_t>(rng.next_below(8 * kMiB)));
      if (!outcome.oom) live.push_back(outcome.id);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      backend->backend_free(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  for (auto id : live) backend->backend_free(id);
  state.SetItemsProcessed(state.iterations());
}

/// The fragmentation stress, whole, per iteration: 100k live 512-byte
/// blocks, every other one freed, then 100k alloc/free pairs against the
/// 50k equal-size holes. A free set with a per-operation cost linear in its
/// size turns this quadratic. Registered in main() for every BFC backend.
void BM_FragmentedChurn(benchmark::State& state, const std::string& name) {
  constexpr int kBlocks = 100000;
  for (auto _ : state) {
    SimulatedCudaDriver driver(std::int64_t{1} << 40);
    const auto backend = xmem::alloc::make_backend(name, driver);
    std::vector<std::int64_t> ids;
    ids.reserve(kBlocks);
    for (int i = 0; i < kBlocks; ++i) {
      ids.push_back(backend->backend_alloc(512).id);
    }
    for (int i = 0; i < kBlocks; i += 2) backend->backend_free(ids[i]);
    for (int i = 0; i < kBlocks; ++i) {
      backend->backend_free(backend->backend_alloc(512).id);
    }
    benchmark::DoNotOptimize(backend->backend_stats().peak_reserved_bytes);
  }
  // 100k allocs, 50k frees, 100k alloc/free pairs.
  state.SetItemsProcessed(state.iterations() * 350000);
}

void BM_SnapshotDump(benchmark::State& state) {
  SimulatedCudaDriver driver(8 * kGiB);
  CachingAllocatorSim allocator(driver);
  xmem::util::Rng rng(7);
  std::vector<xmem::alloc::BlockId> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.next_bool(0.6)) {
      const auto outcome = allocator.allocate(
          1 + static_cast<std::int64_t>(rng.next_below(4 * kMiB)));
      if (!outcome.oom) live.push_back(outcome.id);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      allocator.free(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.snapshot());
  }
}
BENCHMARK(BM_SnapshotDump);

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : xmem::alloc::backend_names()) {
    benchmark::RegisterBenchmark(("BM_RegistryChurn/" + name).c_str(),
                                 BM_RegistryChurn, name);
  }
  for (const std::string name :
       {"basic-bfc", "pytorch", "pytorch-expandable", "stream-pool", "tf-bfc"}) {
    benchmark::RegisterBenchmark(("BM_FragmentedChurn/" + name).c_str(),
                                 BM_FragmentedChurn, name)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
