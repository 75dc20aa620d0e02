// Profiler trace model.
//
// Mirrors the four PyTorch Profiler event categories the paper's Analyzer
// consumes (Section 3.2):
//
//   python_function   — module-level calls forming the call hierarchy
//   user_annotation   — training-loop phase markers (profiler.step,
//                       optimizer.zero_grad, dataloader.__next__, ...)
//   cpu_op            — computational kernels (aten::*) with start/duration
//                       and forward/backward sequence numbers
//   cpu_instant_event — memory allocation (+bytes) / deallocation (-bytes)
//                       events with addresses and timestamps
//
// Traces serialize to and parse from PyTorch-Profiler-style Chrome-trace
// JSON ({"schemaVersion":1, "traceEvents":[...]}), the file format of a
// trace that crosses a process, as the paper's tool reads profiler output
// files. A profile taken in process reaches the Analyzer in memory; the
// read-back trace equals it field for field.
//
// The codec is direct: the writer appends each event's bytes to one
// string, and the reader fills TraceEvents in one pass over the document,
// with no JSON DOM in between. The reader walks util::JsonCursor, the
// lexer util::Json::parse is built on, so a malformed file fails with the
// same JsonParseError either way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/sim_clock.h"

namespace xmem::trace {

enum class EventKind : std::uint8_t {
  kPythonFunction,
  kUserAnnotation,
  kCpuOp,
  kCpuInstantEvent,
};

const char* to_string(EventKind kind);

/// Well-known user_annotation names the Orchestrator keys on.
namespace annotation {
inline constexpr const char* kProfilerStep = "ProfilerStep";
inline constexpr const char* kZeroGrad = "Optimizer.zero_grad";
inline constexpr const char* kOptimizerStep = "Optimizer.step";
inline constexpr const char* kDataLoaderNext = "dataloader.__next__";
inline constexpr const char* kModelToDevice = "Module.to";
inline constexpr const char* kBackward = "autograd::engine::execute";
}  // namespace annotation

struct TraceEvent {
  EventKind kind = EventKind::kCpuOp;
  std::string name;
  util::TimeUs ts = 0;   ///< start timestamp (µs, simulated)
  util::TimeUs dur = 0;  ///< duration (0 for instant events)
  std::int64_t id = -1;  ///< unique event index ("Ev Idx")
  std::int64_t parent_id = -1;  ///< python_function parent ("Python parent id")
  std::int64_t seq = -1;  ///< fwd/bwd linkage ("Sequence number"), -1 = none

  // cpu_instant_event payload; unused (0) for the other kinds.
  std::uint64_t addr = 0;
  std::int64_t bytes = 0;            ///< >0 allocation, <0 deallocation
  std::int64_t total_allocated = 0;  ///< allocator running total after event
  int device_id = -1;                ///< -1 = CPU, >= 0 = CUDA ordinal

  util::TimeUs end_ts() const { return ts + dur; }

  bool is_allocation() const {
    return kind == EventKind::kCpuInstantEvent && bytes > 0;
  }
  bool is_deallocation() const {
    return kind == EventKind::kCpuInstantEvent && bytes < 0;
  }
};

/// A complete profiling session: ordered events plus run metadata.
struct Trace {
  /// Version of the xMem trace schema this writer emits (stored as
  /// `traceMeta.xmem_schema_version`; the top-level `schemaVersion` is the
  /// Chrome-trace field and stays fixed). Bump it whenever the event model
  /// changes shape, so old estimator builds refuse newer files instead of
  /// silently misreading them.
  static constexpr int kSchemaVersion = 1;

  std::string model_name;
  std::string optimizer_name;
  int batch_size = 0;
  int iterations = 0;
  std::string backend;  ///< "cpu" or "cuda"
  /// Schema version read back by from_json_string(): kSchemaVersion for
  /// current files, 0 for legacy files written before the field existed.
  int schema_version = kSchemaVersion;
  std::vector<TraceEvent> events;

  void add(TraceEvent event) { events.push_back(std::move(event)); }
  std::size_t size() const { return events.size(); }

  /// Serialize to compact PyTorch-Profiler-style Chrome-trace JSON: object
  /// keys in byte order, integers in decimal, strings escaped as
  /// util::Json::dump writes them.
  std::string to_json_string() const;
  /// Parse a trace back from JSON. Accepts any key order, whitespace,
  /// escapes and unknown keys; a repeated key's last value wins, and a
  /// field of the wrong type reads as its default. Throws
  /// util::JsonParseError on malformed JSON and std::runtime_error on a
  /// document that is not a trace (no traceEvents array, an unknown
  /// event category, a newer schema version, a number outside int64).
  static Trace from_json_string(std::string_view text);

  /// Write/read the JSON form to disk — the file-based handoff between the
  /// profiling host and the estimator the paper's deployment uses. save()
  /// throws std::runtime_error on I/O failure; load() also on parse errors.
  void save(const std::string& path) const;
  static Trace load(const std::string& path);
};

}  // namespace xmem::trace
