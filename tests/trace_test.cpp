#include "trace/trace.h"

#include <gtest/gtest.h>

#include <limits>

#include "trace_dom_reference.h"
#include "util/json.h"

namespace xmem::trace {
namespace {

TraceEvent make_span(EventKind kind, const std::string& name, std::int64_t id,
                     std::int64_t parent, util::TimeUs ts, util::TimeUs dur) {
  TraceEvent e;
  e.kind = kind;
  e.name = name;
  e.id = id;
  e.parent_id = parent;
  e.ts = ts;
  e.dur = dur;
  return e;
}

TraceEvent make_memory(std::int64_t id, std::uint64_t addr, std::int64_t bytes,
                       std::int64_t total, util::TimeUs ts) {
  TraceEvent e;
  e.kind = EventKind::kCpuInstantEvent;
  e.name = "[memory]";
  e.id = id;
  e.addr = addr;
  e.bytes = bytes;
  e.total_allocated = total;
  e.ts = ts;
  e.device_id = -1;
  return e;
}

Trace make_sample_trace() {
  Trace t;
  t.model_name = "gpt2";
  t.optimizer_name = "AdamW";
  t.batch_size = 8;
  t.iterations = 3;
  t.backend = "cpu";
  t.add(make_span(EventKind::kUserAnnotation, "ProfilerStep#0", 0, -1, 0, 100));
  t.add(make_span(EventKind::kPythonFunction, "nn.Module: Linear_0", 1, 0, 5, 40));
  TraceEvent op = make_span(EventKind::kCpuOp, "aten::addmm", 2, 1, 10, 20);
  op.seq = 7;
  t.add(op);
  t.add(make_memory(3, 0x1000, 4096, 4096, 12));
  t.add(make_memory(4, 0x1000, -4096, 0, 28));
  return t;
}

TEST(Trace, EventKindNames) {
  EXPECT_STREQ(to_string(EventKind::kPythonFunction), "python_function");
  EXPECT_STREQ(to_string(EventKind::kUserAnnotation), "user_annotation");
  EXPECT_STREQ(to_string(EventKind::kCpuOp), "cpu_op");
  EXPECT_STREQ(to_string(EventKind::kCpuInstantEvent), "cpu_instant_event");
}

TEST(Trace, AllocationPredicates) {
  const TraceEvent alloc = make_memory(0, 0x10, 512, 512, 0);
  const TraceEvent dealloc = make_memory(1, 0x10, -512, 0, 1);
  EXPECT_TRUE(alloc.is_allocation());
  EXPECT_FALSE(alloc.is_deallocation());
  EXPECT_TRUE(dealloc.is_deallocation());
  EXPECT_FALSE(dealloc.is_allocation());
}

TEST(Trace, JsonRoundTripPreservesEverything) {
  const Trace original = make_sample_trace();
  const Trace parsed = Trace::from_json_string(original.to_json_string());

  EXPECT_EQ(parsed.model_name, "gpt2");
  EXPECT_EQ(parsed.optimizer_name, "AdamW");
  EXPECT_EQ(parsed.batch_size, 8);
  EXPECT_EQ(parsed.iterations, 3);
  EXPECT_EQ(parsed.backend, "cpu");
  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    const TraceEvent& a = original.events[i];
    const TraceEvent& b = parsed.events[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.ts, b.ts) << i;
    EXPECT_EQ(a.dur, b.dur) << i;
    EXPECT_EQ(a.addr, b.addr) << i;
    EXPECT_EQ(a.bytes, b.bytes) << i;
    EXPECT_EQ(a.total_allocated, b.total_allocated) << i;
  }
  // Sequence numbers and hierarchy survive.
  EXPECT_EQ(parsed.events[2].seq, 7);
  EXPECT_EQ(parsed.events[1].parent_id, 0);
}

TEST(Trace, JsonHasProfilerShape) {
  const util::Json doc =
      util::Json::parse(make_sample_trace().to_json_string());
  EXPECT_EQ(doc.at("schemaVersion").as_int(), 1);
  ASSERT_TRUE(doc.contains("traceEvents"));
  const util::Json& first = doc.at("traceEvents")[0];
  EXPECT_EQ(first.at("cat").as_string(), "user_annotation");
  EXPECT_EQ(first.at("ph").as_string(), "X");
  // Memory events are Chrome instant events with the PyTorch arg names.
  const util::Json& mem = doc.at("traceEvents")[3];
  EXPECT_EQ(mem.at("ph").as_string(), "i");
  EXPECT_EQ(mem.at("args").at("Bytes").as_int(), 4096);
  EXPECT_TRUE(mem.at("args").contains("Total Allocated"));
  EXPECT_TRUE(mem.at("args").contains("Addr"));
}

TEST(Trace, MalformedDocumentsThrow) {
  EXPECT_THROW(Trace::from_json_string("{}"), std::runtime_error);
  EXPECT_THROW(Trace::from_json_string("[1,2]"), std::runtime_error);
  EXPECT_THROW(Trace::from_json_string("not json"), util::JsonParseError);
  // Unknown category.
  EXPECT_THROW(
      Trace::from_json_string(
          R"({"traceEvents":[{"cat":"gpu_op","name":"x","ph":"X","ts":0}]})"),
      std::runtime_error);
}

TEST(Trace, LargeAddressesSurviveJson) {
  Trace t = make_sample_trace();
  t.events[3].addr = 0x7F12'3456'7890ULL;
  const Trace parsed = Trace::from_json_string(t.to_json_string());
  EXPECT_EQ(parsed.events[3].addr, 0x7F12'3456'7890ULL);
}

// ---------- the direct codec against the DOM reference ----------

/// "ok", or the exception's type and message.
std::string outcome(std::string_view text, Trace (*read)(std::string_view)) {
  try {
    read(text);
    return "ok";
  } catch (const util::JsonParseError& error) {
    return std::string("JsonParseError: ") + error.what();
  } catch (const std::runtime_error& error) {
    return std::string("runtime_error: ") + error.what();
  }
}

std::string direct(std::string_view text) {
  return outcome(text, &Trace::from_json_string);
}

TEST(TraceCodec, WriterBytesEqualTheDomWriters) {
  Trace t = make_sample_trace();
  t.model_name = "quote\" slash\\ tab\t ctl\x01 utf8 \xC3\xA9";
  t.events[0].name = "ProfilerStep#0 \"\\\n\x1f";
  t.events[2].seq = -1;  // no "Sequence number" key
  t.events[3].addr = std::numeric_limits<std::uint64_t>::max();
  t.events[3].bytes = std::numeric_limits<std::int64_t>::min();
  t.events[4].total_allocated = std::numeric_limits<std::int64_t>::max();
  t.events[4].device_id = 3;
  EXPECT_EQ(t.to_json_string(), dom::to_json(t).dump());
  EXPECT_EQ(Trace().to_json_string(), dom::to_json(Trace()).dump());
  EXPECT_EQ(dom::difference(Trace::from_json_string(t.to_json_string()), t),
            "");
}

TEST(TraceCodec, ReaderTakesAnyLayoutOfTheSameEvent) {
  // Keys in any order, whitespace, escapes, unknown keys at any depth.
  const Trace t = Trace::from_json_string(R"( {
    "junk": {"nested": [1, {"deeper": "x"}, null, true, -2.5e3]},
    "traceEvents" : [ { "ts" : 7 , "args" : { "Sequence number" : 3,
        "extra": [[], {}], "Parent id": 1, "Ev Idx": 2 },
      "name" : "aten::add\n😀", "cat" : "cpu_op",
      "dur": 4, "ph": "X" } ] ,
    "traceMeta" : { "model" : "m\/1", "backend": "cpu", "unknown": {} }
  } )");
  ASSERT_EQ(t.events.size(), 1u);
  const TraceEvent& e = t.events[0];
  EXPECT_EQ(e.kind, EventKind::kCpuOp);
  EXPECT_EQ(e.name, "aten::add\n\xF0\x9F\x98\x80");
  EXPECT_EQ(e.ts, 7);
  EXPECT_EQ(e.dur, 4);
  EXPECT_EQ(e.id, 2);
  EXPECT_EQ(e.parent_id, 1);
  EXPECT_EQ(e.seq, 3);
  EXPECT_EQ(t.model_name, "m/1");
  EXPECT_EQ(t.schema_version, 0);  // traceMeta without the field: legacy
}

TEST(TraceCodec, ReaderKeepsTheDomReadersFallbacks) {
  const auto read_one = [](const std::string& event) {
    const std::string text = R"({"traceEvents":[)" + event + "]}";
    EXPECT_EQ(dom::difference(Trace::from_json_string(text),
                              dom::from_json_string(text)),
              "")
        << event;
    return Trace::from_json_string(text).events.at(0);
  };
  // Missing and non-object args: every arg at its default.
  for (const char* args : {"", R"(,"args":[1,2])", R"(,"args":"x")"}) {
    const TraceEvent e =
        read_one(std::string(R"({"cat":"cpu_instant_event")") + args + "}");
    EXPECT_EQ(e.id, -1);
    EXPECT_EQ(e.parent_id, -1);
    EXPECT_EQ(e.seq, -1);
    EXPECT_EQ(e.addr, 0u);
    EXPECT_EQ(e.bytes, 0);
    EXPECT_EQ(e.device_id, -1);
    EXPECT_EQ(e.name, "");
  }
  // A repeated key: the last one wins, a repeated args object included.
  TraceEvent e = read_one(
      R"({"cat":"user_annotation","ts":1,"ts":2,"name":"a","name":"b",)"
      R"("args":{"Bytes":5},"args":{"Ev Idx":9,"Ev Idx":10}})");
  EXPECT_EQ(e.ts, 2);
  EXPECT_EQ(e.name, "b");
  EXPECT_EQ(e.id, 10);
  EXPECT_EQ(e.bytes, 0);
  // A wrong-typed field reads as its default, even after a good one.
  e = read_one(
      R"({"cat":"cpu_op","name":7,"ts":"12","dur":[1],)"
      R"("args":{"Ev Idx":3,"Ev Idx":null,"Sequence number":true}})");
  EXPECT_EQ(e.name, "");
  EXPECT_EQ(e.ts, 0);
  EXPECT_EQ(e.dur, 0);
  EXPECT_EQ(e.id, -1);
  EXPECT_EQ(e.seq, -1);
  // "Ev Idx" falls back to "Python id", "Python parent id" to "Parent id".
  e = read_one(
      R"({"cat":"python_function","args":{"Python id":4,"Parent id":2}})");
  EXPECT_EQ(e.id, 4);
  EXPECT_EQ(e.parent_id, 2);
  e = read_one(
      R"({"cat":"python_function","args":{"Ev Idx":5,"Python id":4,)"
      R"("Python parent id":3,"Parent id":2}})");
  EXPECT_EQ(e.id, 5);
  EXPECT_EQ(e.parent_id, 3);
  // A fraction truncates toward zero.
  e = read_one(R"({"cat":"cpu_op","ts":12.9,"dur":-3.7,"args":{"Bytes":1e3}})");
  EXPECT_EQ(e.ts, 12);
  EXPECT_EQ(e.dur, -3);
  EXPECT_EQ(e.bytes, 1000);
}

TEST(TraceCodec, RejectionsKeepTheDomReadersMessages) {
  const std::vector<std::pair<std::string, std::string>> pins = {
      {R"({"schemaVersion":1})",
       "runtime_error: Trace: document has no traceEvents array"},
      {"[1,2]", "runtime_error: Trace: document has no traceEvents array"},
      {R"({"traceEvents":[{"name":"x"}]})",
       "runtime_error: Trace: unknown event category ''"},
      {R"({"traceEvents":[{"cat":"gpu_op"}]})",
       "runtime_error: Trace: unknown event category 'gpu_op'"},
      {R"({"traceEvents":[{"cat":"cpu_op"},3]})",
       "runtime_error: Trace: unknown event category ''"},
      {R"({"traceEvents":[],"traceMeta":{"xmem_schema_version":2}})",
       "runtime_error: Trace: unsupported xmem_schema_version 2 (this build "
       "reads <= 1)"},
      // The schema version is checked before the events, as before.
      {R"({"traceEvents":[{"cat":"x"}],)"
       R"("traceMeta":{"xmem_schema_version":-1}})",
       "runtime_error: Trace: unsupported xmem_schema_version -1 (this build "
       "reads <= 1)"},
      {R"({"traceEvents":[]} x)",
       "JsonParseError: trailing characters after JSON document at offset 19"},
      // A syntax error anywhere wins over a bad event before it.
      {R"({"traceEvents":[{"cat":"x"},{"cat":"cpu_op",}]})",
       "JsonParseError: expected object key at offset 44"},
      {"not json", "JsonParseError: invalid literal at offset 0"},
  };
  for (const auto& [text, expected] : pins) {
    EXPECT_EQ(direct(text), expected) << text;
    EXPECT_EQ(outcome(text, &dom::from_json_string), expected) << text;
  }
  // A repeated traceEvents or traceMeta: the last one decides.
  EXPECT_EQ(direct(R"({"traceEvents":[{"cat":"x"}],"traceEvents":[]})"), "ok");
  EXPECT_EQ(direct(R"({"traceMeta":{"xmem_schema_version":9},)"
                   R"("traceMeta":{},"traceEvents":[]})"),
            "ok");
}

TEST(TraceCodec, NonArrayTraceEventsIsANamedError) {
  // The DOM reader threw std::bad_variant_access here.
  EXPECT_EQ(direct(R"({"traceEvents":{"cat":"cpu_op"}})"),
            "runtime_error: Trace: traceEvents is not an array");
  EXPECT_EQ(direct(R"({"traceEvents":[],"traceEvents":null})"),
            "runtime_error: Trace: traceEvents is not an array");
}

TEST(TraceCodec, NumbersOutsideInt64AreRejectedByEventAndField) {
  // Each of these read as INT64_MIN through the DOM (an out-of-range
  // double-to-int64 cast); they are errors that name the event and field.
  EXPECT_EQ(direct(R"({"traceEvents":[{"cat":"cpu_op","name":"x","ts":1e300,)"
                   R"("dur":1e999,"args":{"Ev Idx":9223372036854775808}}]})"),
            "runtime_error: Trace: traceEvents[0] \"ts\" is outside the int64 "
            "range");
  EXPECT_EQ(direct(R"({"traceEvents":[{"cat":"cpu_op"},)"
                   R"({"cat":"cpu_op","dur":-1e999}]})"),
            "runtime_error: Trace: traceEvents[1] \"dur\" is outside the int64 "
            "range");
  EXPECT_EQ(direct(R"({"traceEvents":[{"cat":"cpu_instant_event",)"
                   R"("args":{"Addr":18446744073709551615}}]})"),
            "runtime_error: Trace: traceEvents[0] \"Addr\" is outside the "
            "int64 range");
  EXPECT_EQ(direct(R"({"traceEvents":[],"traceMeta":{"batch_size":-1e19}})"),
            "runtime_error: Trace: traceMeta \"batch_size\" is outside the "
            "int64 range");
  // The int64 bounds themselves, and a repeated key's last value, are fine.
  const Trace t = Trace::from_json_string(
      R"({"traceEvents":[{"cat":"cpu_op","ts":1e300,)"
      R"("ts":-9223372036854775808,"dur":9223372036854775807,)"
      R"("args":{"Ev Idx":-9.2233720368547758e18}}]})");
  EXPECT_EQ(t.events[0].ts, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(t.events[0].dur, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(t.events[0].id, std::numeric_limits<std::int64_t>::min());
}

}  // namespace
}  // namespace xmem::trace
