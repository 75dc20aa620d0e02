#include "sched/packing_policy.h"

#include <algorithm>
#include <stdexcept>

#include "util/name_table.h"

namespace xmem::sched {

void PackingPolicy::reorder(std::vector<std::size_t>& order,
                            const std::vector<std::int64_t>&) const {
  (void)order;  // queue order stands
}

std::int64_t PackingPolicy::commit_bytes(std::int64_t demand_bytes,
                                         const SlotState&) const {
  return demand_bytes;
}

namespace {

/// Scan in slot order, take the first fit. Also the slot chooser the
/// whole-gpu baseline inherits (its commit override makes "fits" mean
/// "empty").
class FirstFitPolicy : public PackingPolicy {
 public:
  int choose(const std::vector<SlotState>& slots,
             const std::vector<std::int64_t>& demand_bytes) const override {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (commit_bytes(demand_bytes[i], slots[i]) <= slots[i].free_bytes()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

/// One job per GPU, whatever the estimate says: commit the whole budget.
/// The conservative baseline the paper's §1 motivates replacing.
class WholeGpuPolicy : public FirstFitPolicy {
 public:
  std::int64_t commit_bytes(std::int64_t,
                            const SlotState& slot) const override {
    return slot.budget;
  }
};

/// Classic best-fit-decreasing: each priority class packs its largest
/// demands first, and every job lands on the feasible slot with the least
/// leftover space.
class BestFitDecreasingPolicy : public PackingPolicy {
 public:
  void reorder(std::vector<std::size_t>& order,
               const std::vector<std::int64_t>& predicted_bytes)
      const override {
    // `order` is already priority-major; a stable sort on bytes descending
    // keeps the priority classes intact and breaks byte ties by arrival.
    std::stable_sort(order.begin(), order.end(),
                     [&predicted_bytes](std::size_t a, std::size_t b) {
                       return predicted_bytes[a] > predicted_bytes[b];
                     });
  }

  int choose(const std::vector<SlotState>& slots,
             const std::vector<std::int64_t>& demand_bytes) const override {
    int best = -1;
    std::int64_t best_leftover = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::int64_t leftover = slots[i].free_bytes() - demand_bytes[i];
      if (leftover < 0) continue;
      if (best < 0 || leftover < best_leftover) {
        best = static_cast<int>(i);
        best_leftover = leftover;
      }
    }
    return best;
  }
};

/// The built-in policies, sorted by name: packing_policy_names() and the
/// unknown-name message list them in this order.
struct Entry {
  const char* name;
  const char* description;
  std::unique_ptr<PackingPolicy> (*make)();
};

template <typename Policy>
std::unique_ptr<PackingPolicy> make() {
  return std::make_unique<Policy>();
}

constexpr Entry kPolicies[] = {
    {"best-fit-decreasing",
     "largest demands first, tightest feasible GPU (classic BFD)",
     make<BestFitDecreasingPolicy>},
    {"first-fit",
     "predicted peak + headroom, first GPU that fits (queue order)",
     make<FirstFitPolicy>},
    {"whole-gpu",
     "one job per GPU regardless of estimate (conservative baseline)",
     make<WholeGpuPolicy>},
};

static_assert(util::names_sorted(kPolicies));

}  // namespace

std::vector<std::string> packing_policy_names() {
  std::vector<std::string> names;
  for (const Entry& entry : kPolicies) names.emplace_back(entry.name);
  return names;
}

std::string packing_policy_description(const std::string& name) {
  const Entry* entry = util::find_name(kPolicies, name);
  return entry != nullptr ? entry->description : std::string();
}

std::unique_ptr<PackingPolicy> make_packing_policy(const std::string& name) {
  const Entry* entry = util::find_name(kPolicies, name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown packing policy '" + name +
                                "' (known: " + util::joined_names(kPolicies) +
                                ")");
  }
  return entry->make();
}

}  // namespace xmem::sched
