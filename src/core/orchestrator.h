// xMem Memory Orchestrator (paper §3.3).
//
// Refines the CPU-derived lifecycles in a MemoryTimeline so they reflect the
// lifecycles the same logical tensors would have on the target GPU:
//
//   1. Model parameters  — persistent for the whole job.
//   2. Batch data        — truncated to the iteration that loaded it.
//   3. Activations       — CPU lifecycles kept as-is (good approximations).
//   4. Gradients         — deallocation re-timed to the next
//                          optimizer.zero_grad() call.
//   5. Optimizer state   — step-phase blocks matching parameter sizes are
//                          pinned persistent (stateful optimizers allocate
//                          them in iteration 1).
//
// Each rule can be disabled individually for the ablation benches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analyzer.h"

namespace xmem::core {

struct OrchestratorConfig {
  bool rule_params = true;
  bool rule_batch = true;
  bool rule_gradients = true;
  bool rule_optimizer_state = true;
};

struct OrchestratedEvent {
  util::TimeUs ts = 0;
  std::int64_t block_id = 0;
  std::int64_t bytes = 0;  ///< block size
  bool is_alloc = false;

  friend bool operator==(const OrchestratedEvent& a,
                         const OrchestratedEvent& b) {
    return a.ts == b.ts && a.block_id == b.block_id && a.bytes == b.bytes &&
           a.is_alloc == b.is_alloc;
  }
  friend bool operator!=(const OrchestratedEvent& a,
                         const OrchestratedEvent& b) {
    return !(a == b);
  }
};

/// The one replay-stream ordering contract: time-ordered, frees before
/// allocs on ties (so same-instant reuse does not manufacture phantom
/// peaks), block id as the total-order tiebreak. Every producer of an
/// OrchestratedSequence (the Orchestrator, the rank-sequence transforms)
/// orders its events by this comparator.
inline bool orchestrated_event_order(const OrchestratedEvent& a,
                                     const OrchestratedEvent& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.is_alloc != b.is_alloc) return !a.is_alloc;
  return a.block_id < b.block_id;
}

struct OrchestratedSequence {
  /// Blocks with adjusted lifecycles (free_ts == -1: never freed in replay).
  std::vector<MemoryBlock> blocks;
  /// Flattened alloc/free stream, time-ordered (frees first on ties so
  /// same-instant reuse does not manufacture phantom peaks).
  std::vector<OrchestratedEvent> events;
};

struct OrchestratorStats {
  std::size_t params_pinned = 0;
  std::size_t batch_truncated = 0;
  std::size_t gradients_retimed = 0;
  std::size_t optimizer_states_pinned = 0;
};

class Orchestrator {
 public:
  struct Output {
    OrchestratedSequence sequence;
    OrchestratorStats stats;
  };

  Output orchestrate(const MemoryTimeline& timeline,
                     const OrchestratorConfig& config = {}) const;
};

}  // namespace xmem::core
