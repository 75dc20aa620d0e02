// Trace schema versioning (ROADMAP: trace-format versioning): the JSON form
// carries `traceMeta.xmem_schema_version`, round-trips it, keeps legacy
// unversioned files loadable, and refuses files from a newer writer at load
// time instead of misreading them event-by-event.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "trace/trace.h"
#include "util/json.h"

namespace xmem::trace {
namespace {

Trace make_sample_trace() {
  Trace t;
  t.model_name = "resnet50";
  t.optimizer_name = "SGD";
  t.batch_size = 16;
  t.iterations = 3;
  t.backend = "cpu";
  TraceEvent alloc;
  alloc.kind = EventKind::kCpuInstantEvent;
  alloc.name = "[memory]";
  alloc.id = 0;
  alloc.addr = 0x1000;
  alloc.bytes = 4096;
  alloc.total_allocated = 4096;
  alloc.ts = 10;
  t.add(alloc);
  return t;
}

util::Json sample_document() {
  return util::Json::parse(make_sample_trace().to_json_string());
}

TEST(TraceVersion, WriterStampsCurrentVersion) {
  const util::Json doc = sample_document();
  EXPECT_EQ(doc.at("traceMeta").at("xmem_schema_version").as_int(),
            Trace::kSchemaVersion);
}

TEST(TraceVersion, RoundTripPreservesVersionAndMeta) {
  const Trace original = make_sample_trace();
  const Trace reloaded = Trace::from_json_string(original.to_json_string());
  EXPECT_EQ(reloaded.schema_version, Trace::kSchemaVersion);
  EXPECT_EQ(reloaded.model_name, original.model_name);
  EXPECT_EQ(reloaded.batch_size, original.batch_size);
  ASSERT_EQ(reloaded.events.size(), original.events.size());
  EXPECT_EQ(reloaded.events[0].bytes, original.events[0].bytes);
}

TEST(TraceVersion, FileRoundTripThroughSaveAndLoad) {
  const std::string path = testing::TempDir() + "xmem_trace_version.json";
  make_sample_trace().save(path);
  const Trace reloaded = Trace::load(path);
  EXPECT_EQ(reloaded.schema_version, Trace::kSchemaVersion);
  std::remove(path.c_str());
}

TEST(TraceVersion, LegacyFileWithoutFieldLoadsAsVersionZero) {
  util::Json doc = sample_document();
  util::JsonObject meta = doc.at("traceMeta").as_object();
  meta.erase("xmem_schema_version");
  doc["traceMeta"] = util::Json(std::move(meta));
  const Trace reloaded = Trace::from_json_string(doc.dump());
  EXPECT_EQ(reloaded.schema_version, 0);
  EXPECT_EQ(reloaded.model_name, "resnet50");
}

TEST(TraceVersion, BareEventsDocumentWithoutMetaIsAlsoLegacy) {
  const Trace reloaded =
      Trace::from_json_string(R"({"traceEvents": []})");
  EXPECT_EQ(reloaded.schema_version, 0);
  EXPECT_TRUE(reloaded.events.empty());
}

TEST(TraceVersion, NewerWriterIsRefusedAtLoadTime) {
  util::Json doc = sample_document();
  doc["traceMeta"]["xmem_schema_version"] =
      util::Json(Trace::kSchemaVersion + 1);
  EXPECT_THROW(Trace::from_json_string(doc.dump()), std::runtime_error);
  doc["traceMeta"]["xmem_schema_version"] = util::Json(-1);
  EXPECT_THROW(Trace::from_json_string(doc.dump()), std::runtime_error);
}

}  // namespace
}  // namespace xmem::trace
