#include "trace/trace.h"

#include <array>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace xmem::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kPythonFunction: return "python_function";
    case EventKind::kUserAnnotation: return "user_annotation";
    case EventKind::kCpuOp: return "cpu_op";
    case EventKind::kCpuInstantEvent: return "cpu_instant_event";
  }
  return "unknown";
}

namespace {

// ---------- writer ----------

void append_int(std::string& out, std::int64_t value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

/// One event. Keys go in byte order, as a std::map-backed util::Json
/// object emits them: args, cat, dur, name, ph, pid, s, tid, ts, and the
/// args keys likewise.
void append_event(std::string& out, const TraceEvent& e) {
  out += "{\"args\":{";
  switch (e.kind) {
    case EventKind::kCpuInstantEvent:
      out += "\"Addr\":";
      append_int(out, static_cast<std::int64_t>(e.addr));
      out += ",\"Bytes\":";
      append_int(out, e.bytes);
      out += ",\"Device Id\":";
      append_int(out, e.device_id);
      out += ",\"Ev Idx\":";
      append_int(out, e.id);
      out += ",\"Total Allocated\":";
      append_int(out, e.total_allocated);
      break;
    case EventKind::kPythonFunction:
      out += "\"Ev Idx\":";
      append_int(out, e.id);
      out += ",\"Python id\":";
      append_int(out, e.id);
      out += ",\"Python parent id\":";
      append_int(out, e.parent_id);
      break;
    case EventKind::kCpuOp:
      out += "\"Ev Idx\":";
      append_int(out, e.id);
      out += ",\"Parent id\":";
      append_int(out, e.parent_id);
      if (e.seq >= 0) {
        out += ",\"Sequence number\":";
        append_int(out, e.seq);
      }
      break;
    case EventKind::kUserAnnotation:
      out += "\"Ev Idx\":";
      append_int(out, e.id);
      break;
  }
  out += "},\"cat\":\"";
  out += to_string(e.kind);
  out += '"';
  const bool instant = e.kind == EventKind::kCpuInstantEvent;
  if (!instant) {
    out += ",\"dur\":";
    append_int(out, e.dur);
  }
  out += ",\"name\":";
  util::append_json_string(out, e.name);
  out += instant ? ",\"ph\":\"i\",\"pid\":0,\"s\":\"t\""
                 : ",\"ph\":\"X\",\"pid\":0";
  out += ",\"tid\":0,\"ts\":";
  append_int(out, e.ts);
  out += '}';
}

// ---------- reader ----------

std::optional<EventKind> kind_from_string(std::string_view s) {
  if (s == "cpu_instant_event") return EventKind::kCpuInstantEvent;
  if (s == "cpu_op") return EventKind::kCpuOp;
  if (s == "python_function") return EventKind::kPythonFunction;
  if (s == "user_annotation") return EventKind::kUserAnnotation;
  return std::nullopt;
}

std::string unknown_category(std::string_view cat) {
  return "Trace: unknown event category '" + std::string(cat) + "'";
}

/// An integer field as the last occurrence of its key left it. A value of
/// another type counts as absent, so the field reads as its default.
struct IntField {
  enum class State : std::uint8_t { kAbsent, kValue, kOutOfRange };
  State state = State::kAbsent;
  std::int64_t value = 0;

  std::int64_t or_default(std::int64_t fallback) const {
    return state == State::kValue ? value : fallback;
  }
};

/// The args an event reader looks up, in the order their range is checked.
enum Arg {
  kEvIdx,
  kPythonId,
  kPythonParentId,
  kParentId,
  kSequenceNumber,
  kAddr,
  kBytes,
  kTotalAllocated,
  kDeviceId,
  kArgCount,
};
constexpr std::array<std::string_view, kArgCount> kArgNames = {
    "Ev Idx", "Python id", "Python parent id", "Parent id", "Sequence number",
    "Addr",   "Bytes",     "Total Allocated",  "Device Id"};

/// One pass over a Chrome-trace document, straight into a Trace. The
/// document's own errors are held until it has parsed, so a syntax error
/// anywhere wins, and are then raised in a fixed order: no traceEvents, a
/// bad traceMeta, a non-array traceEvents, the first bad event.
class Reader {
 public:
  explicit Reader(std::string_view text) : cursor_(text) {}

  Trace read() {
    Trace t;
    t.schema_version = 0;  // legacy unless traceMeta says otherwise
    const bool is_object = cursor_.peek_value() == '{';
    if (!is_object) {
      cursor_.skip_value();
    } else if (cursor_.enter_object()) {
      do {
        const std::string_view key = cursor_.read_key(scratch_);
        if (key == "traceEvents") {
          read_events(t.events);
        } else if (key == "traceMeta") {
          read_meta(t);
        } else {
          cursor_.skip_value();
        }
      } while (cursor_.next_member());
    }
    cursor_.finish();
    if (!is_object || !events_seen_) {
      throw std::runtime_error("Trace: document has no traceEvents array");
    }
    if (meta_error_) throw std::runtime_error(*meta_error_);
    if (!events_array_) {
      throw std::runtime_error("Trace: traceEvents is not an array");
    }
    if (events_error_) throw std::runtime_error(*events_error_);
    return t;
  }

 private:
  static bool is_number(char first) {
    return first != '{' && first != '[' && first != '"' && first != 't' &&
           first != 'f' && first != 'n';
  }

  /// A fraction truncates toward zero; a number no int64 holds is kept as
  /// out of range, for the caller to reject by name.
  IntField read_int() {
    if (!is_number(cursor_.peek_value())) {
      cursor_.skip_value();
      return {};
    }
    const util::JsonCursor::Number number = cursor_.read_number();
    if (number.is_int) return {IntField::State::kValue, number.int_value};
    // [-2^63, 2^63): the doubles a cast to int64 truncates in range.
    constexpr double kLimit = 9223372036854775808.0;
    const double d = number.double_value;
    if (d >= -kLimit && d < kLimit) {
      return {IntField::State::kValue, static_cast<std::int64_t>(d)};
    }
    return {IntField::State::kOutOfRange, 0};
  }

  /// A value of another type reads as "".
  void read_text(std::string& out) {
    if (cursor_.peek_value() != '"') {
      cursor_.skip_value();
      out.clear();
      return;
    }
    out.assign(cursor_.read_string(scratch_));
  }

  void read_meta(Trace& t) {
    // A repeated traceMeta replaces the earlier one; a non-object one
    // leaves every field at its default.
    meta_error_.reset();
    IntField version, batch_size, iterations;
    t.model_name.clear();
    t.optimizer_name.clear();
    t.backend.clear();
    if (cursor_.peek_value() != '{') {
      cursor_.skip_value();
    } else if (cursor_.enter_object()) {
      do {
        const std::string_view key = cursor_.read_key(scratch_);
        if (key == "xmem_schema_version") {
          version = read_int();
        } else if (key == "model") {
          read_text(t.model_name);
        } else if (key == "optimizer") {
          read_text(t.optimizer_name);
        } else if (key == "batch_size") {
          batch_size = read_int();
        } else if (key == "iterations") {
          iterations = read_int();
        } else if (key == "backend") {
          read_text(t.backend);
        } else {
          cursor_.skip_value();
        }
      } while (cursor_.next_member());
    }
    const std::pair<const char*, const IntField*> checked[] = {
        {"xmem_schema_version", &version},
        {"batch_size", &batch_size},
        {"iterations", &iterations}};
    for (const auto& [name, field] : checked) {
      if (field->state == IntField::State::kOutOfRange && !meta_error_) {
        meta_error_ = std::string("Trace: traceMeta \"") + name +
                      "\" is outside the int64 range";
      }
    }
    // Compat check: files without the field predate versioning (version 0)
    // and stay loadable; files from a newer writer are refused here rather
    // than misread event-by-event downstream.
    const std::int64_t v = version.or_default(0);
    if (!meta_error_ && (v < 0 || v > Trace::kSchemaVersion)) {
      meta_error_ = "Trace: unsupported xmem_schema_version " +
                    std::to_string(v) + " (this build reads <= " +
                    std::to_string(Trace::kSchemaVersion) + ")";
    }
    t.schema_version = static_cast<int>(v);
    t.batch_size = static_cast<int>(batch_size.or_default(0));
    t.iterations = static_cast<int>(iterations.or_default(0));
  }

  void read_events(std::vector<TraceEvent>& events) {
    // A repeated traceEvents replaces the earlier one.
    events.clear();
    events_error_.reset();
    events_seen_ = true;
    events_array_ = cursor_.peek_value() == '[';
    if (!events_array_) {
      cursor_.skip_value();
      return;
    }
    if (!cursor_.enter_array()) return;
    // The writer spends 182-191 bytes an event on every zoo model, so
    // this fits its output with no regrowth and little slack.
    events.reserve(cursor_.remaining() / 176 + 1);
    do {
      if (events_error_) {
        cursor_.skip_value();  // syntax only: the first bad event is reported
        continue;
      }
      const std::size_t index = events.size();
      events_error_ = read_event(index, events.emplace_back());
    } while (cursor_.next_element());
  }

  /// Reads one event into `e`; returns why it is not a valid event.
  std::optional<std::string> read_event(std::size_t index, TraceEvent& e) {
    if (cursor_.peek_value() != '{') {
      cursor_.skip_value();
      return unknown_category("");
    }
    IntField ts, dur;
    std::array<IntField, kArgCount> args{};
    cat_.clear();
    if (cursor_.enter_object()) {
      do {
        const std::string_view key = cursor_.read_key(scratch_);
        if (key == "args") {
          args = {};
          read_args(args);
        } else if (key == "cat") {
          read_text(cat_);
        } else if (key == "name") {
          read_text(e.name);
        } else if (key == "ts") {
          ts = read_int();
        } else if (key == "dur") {
          dur = read_int();
        } else {
          cursor_.skip_value();
        }
      } while (cursor_.next_member());
    }

    const std::optional<EventKind> kind = kind_from_string(cat_);
    if (!kind) return unknown_category(cat_);
    const auto out_of_range = [index](std::string_view field) {
      return "Trace: traceEvents[" + std::to_string(index) + "] \"" +
             std::string(field) + "\" is outside the int64 range";
    };
    if (ts.state == IntField::State::kOutOfRange) return out_of_range("ts");
    if (dur.state == IntField::State::kOutOfRange) return out_of_range("dur");
    for (int arg = 0; arg < kArgCount; ++arg) {
      if (args[arg].state == IntField::State::kOutOfRange) {
        return out_of_range(kArgNames[arg]);
      }
    }
    e.kind = *kind;
    e.ts = ts.or_default(0);
    e.dur = dur.or_default(0);
    e.id = args[kEvIdx].or_default(args[kPythonId].or_default(-1));
    e.parent_id =
        args[kPythonParentId].or_default(args[kParentId].or_default(-1));
    e.seq = args[kSequenceNumber].or_default(-1);
    e.addr = static_cast<std::uint64_t>(args[kAddr].or_default(0));
    e.bytes = args[kBytes].or_default(0);
    e.total_allocated = args[kTotalAllocated].or_default(0);
    e.device_id = static_cast<int>(args[kDeviceId].or_default(-1));
    return std::nullopt;
  }

  /// A missing or non-object args leaves every arg at its default.
  void read_args(std::array<IntField, kArgCount>& args) {
    if (cursor_.peek_value() != '{') {
      cursor_.skip_value();
      return;
    }
    if (!cursor_.enter_object()) return;
    do {
      const std::string_view key = cursor_.read_key(scratch_);
      int arg = 0;
      while (arg < kArgCount && key != kArgNames[arg]) ++arg;
      if (arg < kArgCount) {
        args[arg] = read_int();
      } else {
        cursor_.skip_value();
      }
    } while (cursor_.next_member());
  }

  util::JsonCursor cursor_;
  std::string scratch_;  ///< escaped keys and strings
  std::string cat_;
  bool events_seen_ = false;
  bool events_array_ = false;
  std::optional<std::string> meta_error_;
  std::optional<std::string> events_error_;
};

}  // namespace

std::string Trace::to_json_string() const {
  std::string out;
  out.reserve(256 + events.size() * 192);
  out += "{\"schemaVersion\":1,\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    append_event(out, events[i]);
  }
  out += "],\"traceMeta\":{\"backend\":";
  util::append_json_string(out, backend);
  out += ",\"batch_size\":";
  append_int(out, batch_size);
  out += ",\"iterations\":";
  append_int(out, iterations);
  out += ",\"model\":";
  util::append_json_string(out, model_name);
  out += ",\"optimizer\":";
  util::append_json_string(out, optimizer_name);
  out += ",\"xmem_schema_version\":";
  append_int(out, kSchemaVersion);
  out += "}}";
  return out;
}

Trace Trace::from_json_string(std::string_view text) {
  return Reader(text).read();
}

void Trace::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("Trace::save: cannot open " + path);
  }
  out << to_json_string();
  if (!out) {
    throw std::runtime_error("Trace::save: write failed for " + path);
  }
}

Trace Trace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Trace::load: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json_string(buffer.str());
}

}  // namespace xmem::trace
