// Bin-packing policies for the fleet planner: a fixed, name-keyed table of
// three built-ins behind one PackingPolicy interface.
//
// The paper's motivation (§1) is admission control: schedulers reserve
// whole GPUs because they cannot trust memory estimates. A packing policy
// encodes exactly that trust decision — how many bytes a job commits on a
// GPU, in what order the queue is packed, and which of the feasible GPUs
// it lands on. The three built-ins bracket the design space:
//
//   whole-gpu            — one job per GPU, no sharing (today's
//                          conservative default; the baseline every
//                          estimate-driven policy is measured against)
//   first-fit            — commit predicted peak + headroom; scan GPUs in
//                          fleet order, take the first that fits
//   best-fit-decreasing  — sort each priority class by predicted bytes
//                          descending, place each job on the feasible GPU
//                          with the least leftover space (classic BFD:
//                          packs tighter when small early arrivals would
//                          otherwise squat where big jobs must go, but a
//                          heuristic, not a dominance theorem — a queue of
//                          many small jobs can admit more under first-fit)
//
// Policies are pure slot arithmetic: deterministic, allocation-free on the
// hot path, and oblivious to where the demand numbers came from. The
// FleetPlanner owns estimation; a policy only ever sees bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace xmem::sched {

/// One GPU's packing state: what the policy has committed out of its
/// job budget. `pool`/`index` identify the physical slot
/// (FleetRequest::pools[pool], device index within the pool).
struct SlotState {
  std::size_t pool = 0;
  int index = 0;
  std::int64_t budget = 0;     ///< device job budget (capacity - residues)
  std::int64_t committed = 0;  ///< bytes committed by placed jobs
  int jobs = 0;                ///< jobs placed on this slot

  std::int64_t free_bytes() const { return budget - committed; }
};

class PackingPolicy {
 public:
  virtual ~PackingPolicy() = default;

  /// Reorder job indices for packing. `order` arrives priority-major,
  /// arrival-minor (the queue contract) and must stay a permutation;
  /// `predicted_bytes[i]` is job i's device-independent predicted peak.
  /// Default: keep the queue order.
  virtual void reorder(std::vector<std::size_t>& order,
                       const std::vector<std::int64_t>& predicted_bytes) const;

  /// Bytes a job with demand `demand_bytes` (predicted peak + headroom)
  /// commits on `slot` if placed there. The whole-gpu baseline overrides
  /// this to the slot's full budget.
  virtual std::int64_t commit_bytes(std::int64_t demand_bytes,
                                    const SlotState& slot) const;

  /// Pick a slot, or -1 when none fits. `demand_bytes[i]` is the job's
  /// demand *on slot i* — per-slot because headroom (and hence demand)
  /// varies with the device model under a heterogeneous fleet. Must be
  /// deterministic; ties break toward the lowest slot index so serial and
  /// threaded packs agree.
  virtual int choose(const std::vector<SlotState>& slots,
                     const std::vector<std::int64_t>& demand_bytes) const = 0;
};

/// The built-in policy names, sorted.
std::vector<std::string> packing_policy_names();

/// One-line description; empty for an unknown name.
std::string packing_policy_description(const std::string& name);

/// Construct a policy by name; throws std::invalid_argument listing the
/// known names when unknown.
std::unique_ptr<PackingPolicy> make_packing_policy(const std::string& name);

}  // namespace xmem::sched
