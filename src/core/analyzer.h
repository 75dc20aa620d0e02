// xMem Analyzer (paper §3.2).
//
// Consumes a raw profiler trace and produces the structured, temporally
// ordered sequence of GPU-relevant memory blocks:
//   1. reconstructs block lifecycles by pairing allocation/deallocation
//      events on (address, time), correctly handling address reuse;
//   2. attributes each block to its originating operator through
//      hierarchical time-window containment;
//   3. filters out script-level temporaries that never touch an operator
//      (they would not exist on the GPU);
//   4. tags each block with its training-loop phase and iteration, which is
//      what the Orchestrator's rules key on.
//
// Note on rule (ii): the paper keeps blocks "allocated during the
// operator's window but persisting beyond the linked high-level component".
// We keep any block allocated inside an operator window (i.e. we apply the
// persistence test against the *operator*, not the component): dropping
// operator-allocated blocks that die inside their component would discard
// cross-op activation chains that do occupy GPU memory. The filtering
// intent — discard script-level (non-operator) temporaries — is unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/sim_clock.h"

namespace xmem::core {

enum class Phase : std::uint8_t {
  kModelLoad,
  kDataLoader,
  kForward,
  kBackward,
  kOptimizerStep,
  kOther,
};

struct MemoryBlock {
  std::int64_t id = 0;
  std::int64_t size = 0;
  util::TimeUs alloc_ts = 0;
  util::TimeUs free_ts = -1;  ///< -1: no dealloc observed (persistent)
  std::string op_name;        ///< attributed operator
  std::string component;      ///< operator's enclosing module/annotation
  Phase phase = Phase::kOther;
  int iteration = -1;  ///< ProfilerStep index containing the allocation
  std::int64_t seq = -1;

  bool persistent() const { return free_ts < 0; }
};

struct Window {
  util::TimeUs start = 0;
  util::TimeUs end = 0;
  bool contains(util::TimeUs t) const { return t >= start && t < end; }
};

/// The Analyzer's structured output — input to the Orchestrator.
struct MemoryTimeline {
  std::vector<MemoryBlock> blocks;  ///< ordered by alloc_ts, GPU-relevant only
  std::vector<Window> iterations;   ///< ProfilerStep windows, in order
  std::vector<Window> zero_grads;
  std::vector<Window> optimizer_steps;
  std::vector<Window> dataloaders;
  std::vector<Window> backwards;
  Window model_load;
  util::TimeUs trace_end = 0;
  /// Distinct sizes of the persistent model-load blocks; the Orchestrator's
  /// gradient/optimizer-state rules match candidate blocks against these.
  std::vector<std::int64_t> param_sizes;
};

struct AnalyzerStats {
  std::size_t memory_events = 0;
  std::size_t matched_pairs = 0;     ///< alloc+free lifecycles reconstructed
  std::size_t persistent_blocks = 0; ///< allocs with no matching free
  std::size_t filtered_blocks = 0;   ///< dropped: no operator context
  std::size_t unmatched_frees = 0;   ///< frees with no live allocation
  std::size_t address_reuses = 0;    ///< same address opened more than once
};

class Analyzer {
 public:
  struct Output {
    MemoryTimeline timeline;
    AnalyzerStats stats;
  };

  /// Analyze a parsed trace. Throws std::runtime_error on traces without
  /// iteration markers (nothing to estimate from).
  Output analyze(const trace::Trace& trace) const;
};

}  // namespace xmem::core
