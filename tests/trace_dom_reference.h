// Reference Chrome-trace codec built on the util::Json DOM: the shape the
// library's direct codec (trace/trace.cpp) replaced. Tests hold the direct
// writer to this writer's bytes and the direct reader to this reader's
// events and error messages. Test-only; nothing in the library calls it.
// difference() compares two traces field by field.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "trace/trace.h"
#include "util/json.h"

namespace xmem::trace::dom {

inline util::Json event_to_json(const TraceEvent& e) {
  using util::Json;
  util::JsonObject obj;
  obj["cat"] = Json(std::string(to_string(e.kind)));
  obj["name"] = Json(e.name);
  obj["pid"] = Json(0);
  obj["tid"] = Json(0);
  obj["ts"] = Json(e.ts);
  util::JsonObject args;
  args["Ev Idx"] = Json(e.id);
  switch (e.kind) {
    case EventKind::kCpuInstantEvent:
      obj["ph"] = Json("i");
      obj["s"] = Json("t");
      args["Addr"] = Json(static_cast<std::int64_t>(e.addr));
      args["Bytes"] = Json(e.bytes);
      args["Total Allocated"] = Json(e.total_allocated);
      args["Device Id"] = Json(e.device_id);
      break;
    case EventKind::kPythonFunction:
      obj["ph"] = Json("X");
      obj["dur"] = Json(e.dur);
      args["Python id"] = Json(e.id);
      args["Python parent id"] = Json(e.parent_id);
      break;
    case EventKind::kCpuOp:
      obj["ph"] = Json("X");
      obj["dur"] = Json(e.dur);
      if (e.seq >= 0) args["Sequence number"] = Json(e.seq);
      args["Parent id"] = Json(e.parent_id);
      break;
    case EventKind::kUserAnnotation:
      obj["ph"] = Json("X");
      obj["dur"] = Json(e.dur);
      break;
  }
  obj["args"] = Json(std::move(args));
  return Json(std::move(obj));
}

inline util::Json to_json(const Trace& t) {
  using util::Json;
  util::JsonObject doc;
  doc["schemaVersion"] = Json(1);
  util::JsonObject props;
  props["xmem_schema_version"] = Json(Trace::kSchemaVersion);
  props["model"] = Json(t.model_name);
  props["optimizer"] = Json(t.optimizer_name);
  props["batch_size"] = Json(t.batch_size);
  props["iterations"] = Json(t.iterations);
  props["backend"] = Json(t.backend);
  doc["traceMeta"] = Json(std::move(props));
  Json events = Json::array();
  for (const TraceEvent& e : t.events) events.push_back(event_to_json(e));
  doc["traceEvents"] = std::move(events);
  return Json(std::move(doc));
}

inline EventKind kind_from_string(const std::string& s) {
  if (s == "python_function") return EventKind::kPythonFunction;
  if (s == "user_annotation") return EventKind::kUserAnnotation;
  if (s == "cpu_op") return EventKind::kCpuOp;
  if (s == "cpu_instant_event") return EventKind::kCpuInstantEvent;
  throw std::runtime_error("Trace: unknown event category '" + s + "'");
}

inline TraceEvent event_from_json(const util::Json& j) {
  TraceEvent e;
  e.kind = kind_from_string(j.get_string_or("cat", ""));
  e.name = j.get_string_or("name", "");
  e.ts = j.get_int_or("ts", 0);
  e.dur = j.get_int_or("dur", 0);
  if (j.contains("args")) {
    const util::Json& args = j.at("args");
    e.id = args.get_int_or("Ev Idx", args.get_int_or("Python id", -1));
    e.parent_id =
        args.get_int_or("Python parent id", args.get_int_or("Parent id", -1));
    e.seq = args.get_int_or("Sequence number", -1);
    e.addr = static_cast<std::uint64_t>(args.get_int_or("Addr", 0));
    e.bytes = args.get_int_or("Bytes", 0);
    e.total_allocated = args.get_int_or("Total Allocated", 0);
    e.device_id = static_cast<int>(args.get_int_or("Device Id", -1));
  }
  return e;
}

/// Throws std::bad_variant_access on a non-array traceEvents, and is
/// undefined on a number outside int64: keep such documents away from it.
inline Trace from_json(const util::Json& doc) {
  if (!doc.is_object() || !doc.contains("traceEvents")) {
    throw std::runtime_error("Trace: document has no traceEvents array");
  }
  Trace t;
  t.schema_version = 0;
  if (doc.contains("traceMeta")) {
    const util::Json& meta = doc.at("traceMeta");
    const std::int64_t version = meta.get_int_or("xmem_schema_version", 0);
    if (version < 0 || version > Trace::kSchemaVersion) {
      throw std::runtime_error(
          "Trace: unsupported xmem_schema_version " +
          std::to_string(version) + " (this build reads <= " +
          std::to_string(Trace::kSchemaVersion) + ")");
    }
    t.schema_version = static_cast<int>(version);
    t.model_name = meta.get_string_or("model", "");
    t.optimizer_name = meta.get_string_or("optimizer", "");
    t.batch_size = static_cast<int>(meta.get_int_or("batch_size", 0));
    t.iterations = static_cast<int>(meta.get_int_or("iterations", 0));
    t.backend = meta.get_string_or("backend", "");
  }
  const auto& arr = doc.at("traceEvents").as_array();
  t.events.reserve(arr.size());
  for (const auto& item : arr) t.events.push_back(event_from_json(item));
  return t;
}

inline Trace from_json_string(std::string_view text) {
  return from_json(util::Json::parse(text));
}

/// The first difference between two traces, every field compared; "" when
/// they are identical.
inline std::string difference(const Trace& a, const Trace& b) {
  if (a.model_name != b.model_name || a.optimizer_name != b.optimizer_name ||
      a.batch_size != b.batch_size || a.iterations != b.iterations ||
      a.backend != b.backend || a.schema_version != b.schema_version) {
    return "traceMeta differs";
  }
  if (a.events.size() != b.events.size()) {
    return "event counts differ: " + std::to_string(a.events.size()) +
           " vs " + std::to_string(b.events.size());
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const TraceEvent& x = a.events[i];
    const TraceEvent& y = b.events[i];
    if (x.kind != y.kind || x.name != y.name || x.ts != y.ts ||
        x.dur != y.dur || x.id != y.id || x.parent_id != y.parent_id ||
        x.seq != y.seq || x.addr != y.addr || x.bytes != y.bytes ||
        x.total_allocated != y.total_allocated ||
        x.device_id != y.device_id) {
      return "event " + std::to_string(i) + " differs";
    }
  }
  return "";
}

}  // namespace xmem::trace::dom
