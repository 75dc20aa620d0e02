#include "core/analyzer.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace xmem::core {

namespace {

using trace::EventKind;
using trace::TraceEvent;

bool name_starts_with(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

/// Sorted, non-overlapping interval list with containment lookup.
struct WindowIndex {
  std::vector<Window> windows;

  void add(util::TimeUs start, util::TimeUs end) {
    windows.push_back(Window{start, end});
  }
  void finalize() {
    std::sort(windows.begin(), windows.end(),
              [](const Window& a, const Window& b) { return a.start < b.start; });
  }
  /// Index of the window containing `t`, or -1. Assumes non-overlap (true
  /// for our window classes: ops are leaves; annotations of one class never
  /// overlap each other).
  int find(util::TimeUs t) const {
    auto it = std::upper_bound(
        windows.begin(), windows.end(), t,
        [](util::TimeUs value, const Window& w) { return value < w.start; });
    if (it == windows.begin()) return -1;
    --it;
    if (it->contains(t)) return static_cast<int>(it - windows.begin());
    return -1;
  }
};

/// An operator's window. The strings point into the analyzed trace; an op
/// with no parent span points at one shared empty component.
struct OpWindow {
  util::TimeUs start = 0;
  util::TimeUs end = 0;
  const std::string* name = nullptr;
  const std::string* component = nullptr;
  std::int64_t seq = -1;
};

}  // namespace

Analyzer::Output Analyzer::analyze(const trace::Trace& trace) const {
  Output out;
  MemoryTimeline& tl = out.timeline;
  AnalyzerStats& stats = out.stats;

  // Pass 1: index span events. Build the id->event map for parent lookup
  // (a repeated id maps to its last span; instant events are never
  // parents) and classify annotation windows by name.
  std::unordered_map<std::int64_t, const TraceEvent*> by_id;
  by_id.reserve(trace.events.size());
  std::size_t allocations = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.kind != EventKind::kCpuInstantEvent) {
      by_id[e.id] = &e;
    } else if (e.bytes > 0) {
      ++allocations;
    }
  }

  static const std::string kNoComponent;
  WindowIndex iter_index, zg_index, step_index, dl_index, bw_index;
  std::vector<OpWindow> ops;
  Window model_load{0, 0};
  util::TimeUs trace_end = 0;

  for (const TraceEvent& e : trace.events) {
    trace_end = std::max(trace_end, e.end_ts());
    switch (e.kind) {
      case EventKind::kUserAnnotation: {
        if (name_starts_with(e.name, trace::annotation::kProfilerStep)) {
          iter_index.add(e.ts, e.end_ts());
        } else if (name_starts_with(e.name, trace::annotation::kZeroGrad)) {
          zg_index.add(e.ts, e.end_ts());
        } else if (name_starts_with(e.name, trace::annotation::kOptimizerStep)) {
          step_index.add(e.ts, e.end_ts());
        } else if (name_starts_with(e.name, trace::annotation::kDataLoaderNext)) {
          dl_index.add(e.ts, e.end_ts());
        } else if (name_starts_with(e.name, trace::annotation::kBackward)) {
          bw_index.add(e.ts, e.end_ts());
        } else if (name_starts_with(e.name, trace::annotation::kModelToDevice)) {
          model_load = Window{e.ts, e.end_ts()};
        }
        break;
      }
      case EventKind::kCpuOp: {
        // The component is the nearest python_function / annotation parent.
        const auto parent = by_id.find(e.parent_id);
        ops.push_back(OpWindow{
            e.ts, e.end_ts(), &e.name,
            parent != by_id.end() ? &parent->second->name : &kNoComponent,
            e.seq});
        break;
      }
      default:
        break;
    }
  }
  iter_index.finalize();
  zg_index.finalize();
  step_index.finalize();
  dl_index.finalize();
  bw_index.finalize();
  // Op windows were appended in start order already (the profiler emits
  // spans at open time), but sort defensively and keep `ops` aligned.
  std::sort(ops.begin(), ops.end(),
            [](const OpWindow& a, const OpWindow& b) { return a.start < b.start; });
  WindowIndex op_index;
  op_index.windows.reserve(ops.size());
  for (const OpWindow& op : ops) op_index.add(op.start, op.end);
  // Already sorted: finalize() would be a no-op, but keep the invariant.
  op_index.finalize();

  if (iter_index.windows.empty()) {
    throw std::runtime_error(
        "Analyzer: trace has no ProfilerStep iteration markers");
  }

  // Pass 2: reconstruct block lifecycles from the memory event stream,
  // handling address reuse (an address can host many blocks over time).
  // One entry per address ever allocated; `open` while a block lives there.
  struct AddressState {
    std::int64_t size = 0;
    util::TimeUs alloc_ts = 0;
    bool open = false;
  };
  std::unordered_map<std::uint64_t, AddressState> addresses;
  addresses.reserve(allocations);

  struct RawBlock {
    std::uint64_t addr = 0;
    std::int64_t size = 0;
    util::TimeUs alloc_ts = 0;
    util::TimeUs free_ts = -1;
  };
  std::vector<RawBlock> raw_blocks;
  raw_blocks.reserve(allocations);

  for (const TraceEvent& e : trace.events) {
    if (e.kind != EventKind::kCpuInstantEvent) continue;
    ++stats.memory_events;
    if (e.bytes > 0) {
      const auto [it, first_use] = addresses.try_emplace(e.addr);
      if (!first_use) ++stats.address_reuses;
      it->second = AddressState{e.bytes, e.ts, true};
    } else if (e.bytes < 0) {
      const auto it = addresses.find(e.addr);
      if (it == addresses.end() || !it->second.open) {
        ++stats.unmatched_frees;
        continue;
      }
      raw_blocks.push_back(
          RawBlock{e.addr, it->second.size, it->second.alloc_ts, e.ts});
      ++stats.matched_pairs;
      it->second.open = false;
    }
  }
  for (const auto& [addr, state] : addresses) {
    if (!state.open) continue;
    raw_blocks.push_back(RawBlock{addr, state.size, state.alloc_ts, -1});
    ++stats.persistent_blocks;
  }
  std::sort(raw_blocks.begin(), raw_blocks.end(),
            [](const RawBlock& a, const RawBlock& b) {
              if (a.alloc_ts != b.alloc_ts) return a.alloc_ts < b.alloc_ts;
              return a.addr < b.addr;
            });

  // Pass 3: operator attribution + phase/iteration tagging; filter blocks
  // with no operator context (script-level temporaries).
  std::int64_t next_id = 1;
  tl.blocks.reserve(raw_blocks.size());
  for (const RawBlock& rb : raw_blocks) {
    const int op_slot = op_index.find(rb.alloc_ts);
    if (op_slot < 0) {
      ++stats.filtered_blocks;
      continue;
    }
    MemoryBlock block;
    block.id = next_id++;
    block.size = rb.size;
    block.alloc_ts = rb.alloc_ts;
    block.free_ts = rb.free_ts;
    const OpWindow& op = ops[static_cast<std::size_t>(op_slot)];
    block.op_name = *op.name;
    block.component = *op.component;
    block.seq = op.seq;
    block.iteration = iter_index.find(rb.alloc_ts);

    if (model_load.contains(rb.alloc_ts)) {
      block.phase = Phase::kModelLoad;
    } else if (dl_index.find(rb.alloc_ts) >= 0) {
      block.phase = Phase::kDataLoader;
    } else if (bw_index.find(rb.alloc_ts) >= 0) {
      block.phase = Phase::kBackward;
    } else if (step_index.find(rb.alloc_ts) >= 0) {
      block.phase = Phase::kOptimizerStep;
    } else if (block.iteration >= 0) {
      block.phase = Phase::kForward;
    } else {
      block.phase = Phase::kOther;
    }
    tl.blocks.push_back(std::move(block));
  }

  tl.iterations = iter_index.windows;
  tl.zero_grads = zg_index.windows;
  tl.optimizer_steps = step_index.windows;
  tl.dataloaders = dl_index.windows;
  tl.backwards = bw_index.windows;
  tl.model_load = model_load;
  tl.trace_end = trace_end;

  for (const MemoryBlock& b : tl.blocks) {
    if (b.phase == Phase::kModelLoad) tl.param_sizes.push_back(b.size);
  }
  std::sort(tl.param_sizes.begin(), tl.param_sizes.end());
  tl.param_sizes.erase(
      std::unique(tl.param_sizes.begin(), tl.param_sizes.end()),
      tl.param_sizes.end());
  return out;
}

}  // namespace xmem::core
