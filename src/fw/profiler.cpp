#include "fw/profiler.h"

#include <stdexcept>

namespace xmem::fw {

std::int64_t Profiler::open_span(trace::EventKind kind, std::string name,
                                 std::int64_t seq) {
  trace::TraceEvent e;
  e.kind = kind;
  e.name = std::move(name);
  e.ts = clock_.now();
  e.dur = 0;
  e.id = next_id_++;
  e.seq = seq;
  // A trace file carries a parent only on python_function and cpu_op
  // events, so annotations keep none and read back unchanged.
  if (kind != trace::EventKind::kUserAnnotation && !stack_.empty()) {
    e.parent_id = out_.events[stack_.back()].id;
  }
  out_.events.push_back(std::move(e));
  stack_.push_back(out_.events.size() - 1);
  return static_cast<std::int64_t>(out_.events.size() - 1);
}

void Profiler::close_span(std::int64_t token) {
  if (stack_.empty() ||
      stack_.back() != static_cast<std::size_t>(token)) {
    throw std::logic_error("Profiler: spans must close innermost-first");
  }
  auto& e = out_.events[stack_.back()];
  e.dur = clock_.now() - e.ts;
  stack_.pop_back();
}

void Profiler::memory_event(std::uint64_t addr, std::int64_t bytes,
                            std::int64_t total_allocated, int device_id) {
  trace::TraceEvent e;
  e.kind = trace::EventKind::kCpuInstantEvent;
  e.name = "[memory]";
  e.ts = clock_.now();
  e.id = next_id_++;
  e.addr = addr;
  e.bytes = bytes;
  e.total_allocated = total_allocated;
  e.device_id = device_id;
  out_.events.push_back(std::move(e));
}

}  // namespace xmem::fw
