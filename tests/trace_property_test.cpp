// Whole-zoo trace properties: for every model in the zoo, a profiling run
// must produce a structurally sound trace (balanced spans, valid parents,
// coherent timestamps) that survives JSON round-tripping and analysis.
// These are the invariants the downstream pipeline relies on. The direct
// JSON codec is held to the DOM reference (trace_dom_reference.h) on every
// zoo trace and on seeded reformattings of one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "core/analyzer.h"
#include "core/profile_runner.h"
#include "models/workload.h"
#include "models/zoo.h"
#include "trace_dom_reference.h"
#include "util/rng.h"

namespace xmem {
namespace {

int small_batch_for(const std::string& model_name) {
  const auto grid = models::batch_grid_for(model_name);
  return grid.front();
}

class ZooTraceProperty : public ::testing::TestWithParam<std::string> {
 protected:
  static trace::Trace make_trace(const std::string& model_name) {
    const fw::ModelDescriptor model =
        models::build_model(model_name, small_batch_for(model_name));
    core::ProfileOptions options;
    options.iterations = 2;  // keep the sweep quick
    return core::profile_on_cpu(model, fw::OptimizerKind::kAdamW, options);
  }
};

TEST_P(ZooTraceProperty, SpansAreWellFormed) {
  const trace::Trace t = make_trace(GetParam());
  std::unordered_map<std::int64_t, const trace::TraceEvent*> by_id;
  for (const auto& e : t.events) {
    if (e.kind != trace::EventKind::kCpuInstantEvent) {
      EXPECT_GE(e.dur, 0);
      EXPECT_EQ(by_id.count(e.id), 0u) << "duplicate event id";
      by_id[e.id] = &e;
    }
  }
  for (const auto& e : t.events) {
    if (e.kind == trace::EventKind::kCpuInstantEvent) continue;
    if (e.parent_id < 0) continue;
    auto parent = by_id.find(e.parent_id);
    ASSERT_NE(parent, by_id.end()) << "dangling parent id";
    // A child's span lies within its parent's span.
    EXPECT_GE(e.ts, parent->second->ts);
    EXPECT_LE(e.end_ts(), parent->second->end_ts());
  }
}

TEST_P(ZooTraceProperty, TimestampsAreMonotoneNonDecreasing) {
  const trace::Trace t = make_trace(GetParam());
  util::TimeUs last = 0;
  for (const auto& e : t.events) {
    EXPECT_GE(e.ts, last) << "events must be emitted in start order";
    last = e.ts;
  }
}

TEST_P(ZooTraceProperty, JsonRoundTripIsLossless) {
  const trace::Trace t = make_trace(GetParam());
  const trace::Trace parsed = trace::Trace::from_json_string(t.to_json_string());
  ASSERT_EQ(parsed.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, t.events[i].kind);
    EXPECT_EQ(parsed.events[i].ts, t.events[i].ts);
    EXPECT_EQ(parsed.events[i].bytes, t.events[i].bytes);
    EXPECT_EQ(parsed.events[i].addr, t.events[i].addr);
    EXPECT_EQ(parsed.events[i].seq, t.events[i].seq);
  }
}

TEST_P(ZooTraceProperty, DirectCodecMatchesTheDomReference) {
  // Every optimizer x zero_grad placement: the writer's bytes are the DOM
  // writer's, and the reader returns the DOM reader's trace.
  const std::string& name = GetParam();
  const fw::ModelDescriptor model =
      models::build_model(name, small_batch_for(name));
  for (const fw::OptimizerKind optimizer :
       {fw::OptimizerKind::kSgd, fw::OptimizerKind::kAdam,
        fw::OptimizerKind::kAdamW, fw::OptimizerKind::kRmsprop,
        fw::OptimizerKind::kAdagrad, fw::OptimizerKind::kAdafactor}) {
    for (const fw::ZeroGradPlacement placement :
         {fw::ZeroGradPlacement::kPos0BeforeBackward,
          fw::ZeroGradPlacement::kPos1IterStart}) {
      core::ProfileOptions options;
      options.iterations = 1;
      options.placement = placement;
      const trace::Trace t = core::profile_on_cpu(model, optimizer, options);
      const std::string text = t.to_json_string();
      SCOPED_TRACE(std::string(fw::to_string(optimizer)) + " " +
                   fw::to_string(placement));
      ASSERT_EQ(text, trace::dom::to_json(t).dump());
      EXPECT_EQ(trace::dom::difference(trace::Trace::from_json_string(text),
                                       trace::dom::from_json_string(text)),
                "");
    }
  }
}

TEST_P(ZooTraceProperty, AnalyzerProducesCoherentTimeline) {
  const trace::Trace t = make_trace(GetParam());
  const auto out = core::Analyzer().analyze(t);
  const auto& tl = out.timeline;
  ASSERT_EQ(tl.iterations.size(), 2u);
  EXPECT_FALSE(tl.blocks.empty());
  EXPECT_FALSE(tl.param_sizes.empty());
  // Lifecycles are sane: free after alloc, windows ordered.
  for (const auto& b : tl.blocks) {
    EXPECT_GT(b.size, 0);
    if (!b.persistent()) {
      EXPECT_GT(b.free_ts, b.alloc_ts);
    }
  }
  for (std::size_t i = 1; i < tl.iterations.size(); ++i) {
    EXPECT_LE(tl.iterations[i - 1].end, tl.iterations[i].start);
  }
  // Model-load blocks exist and are persistent (they become param_sizes).
  std::size_t model_load_blocks = 0;
  for (const auto& b : tl.blocks) {
    if (b.phase == core::Phase::kModelLoad) {
      ++model_load_blocks;
      EXPECT_TRUE(b.persistent());
    }
  }
  EXPECT_GT(model_load_blocks, 0u);
  // Script noise must have been filtered on every model.
  EXPECT_GT(out.stats.filtered_blocks, 0u);
}

TEST_P(ZooTraceProperty, BackwardMirrorsForwardSequenceNumbers) {
  const trace::Trace t = make_trace(GetParam());
  // Every backward op's sequence number matches exactly one forward op.
  std::unordered_set<std::int64_t> forward_seqs;
  for (const auto& e : t.events) {
    if (e.kind == trace::EventKind::kCpuOp && e.seq >= 0 &&
        e.name.find("_backward") == std::string::npos) {
      forward_seqs.insert(e.seq);
    }
  }
  std::size_t backward_ops = 0;
  for (const auto& e : t.events) {
    if (e.kind == trace::EventKind::kCpuOp &&
        e.name.find("_backward") != std::string::npos) {
      ++backward_ops;
      EXPECT_TRUE(forward_seqs.count(e.seq))
          << e.name << " has unmatched sequence number " << e.seq;
    }
  }
  EXPECT_GT(backward_ops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooTraceProperty,
                         ::testing::ValuesIn(models::all_model_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------- seeded reformattings ----------

/// Writes a parsed trace document back out with a random layout the DOM
/// reader accepts: shuffled keys, whitespace, \uXXXX escapes, unknown
/// nested keys, dropped args, repeated keys, wrong-typed fields and
/// fractional numbers. The category and the document's own keys are left
/// alone, so most documents still load.
class Reformatter {
 public:
  explicit Reformatter(std::uint64_t seed) : rng_(seed) {}

  std::string write(const util::Json& doc) {
    out_.clear();
    value(doc, /*key=*/"", 0);
    space();
    return out_;
  }

 private:
  void space() {
    const std::uint64_t n = rng_.next_below(4) == 0 ? rng_.next_below(3) : 0;
    for (std::uint64_t i = 0; i < n; ++i) out_ += " \t\n\r"[rng_.next_below(4)];
  }

  void string(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      const auto byte = static_cast<unsigned char>(c);
      if (byte == '"' || byte == '\\' || byte < 0x20 ||
          (byte < 0x80 && rng_.next_bool(0.1))) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04X", byte);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  /// A value no trace field uses: unknown keys and wrong-typed fields.
  void junk(int depth) {
    switch (rng_.next_below(depth > 1 ? 4 : 6)) {
      case 0: out_ += "null"; break;
      case 1: out_ += rng_.next_bool(0.5) ? "true" : "false"; break;
      case 2: string("junk"); break;
      case 3: out_ += "-1.5e2"; break;
      case 4: {
        out_ += '[';
        const std::uint64_t n = rng_.next_below(3);
        for (std::uint64_t i = 0; i < n; ++i) {
          if (i > 0) out_ += ',';
          space();
          junk(depth + 1);
        }
        out_ += ']';
        break;
      }
      default: {
        out_ += '{';
        const std::uint64_t n = rng_.next_below(3);
        for (std::uint64_t i = 0; i < n; ++i) {
          if (i > 0) out_ += ',';
          string("k" + std::to_string(i));
          out_ += ':';
          junk(depth + 1);
        }
        out_ += '}';
      }
    }
  }

  void value(const util::Json& v, const std::string& key, int depth) {
    space();
    if (v.is_object()) {
      object(v, depth);
    } else if (v.is_array()) {
      out_ += '[';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out_ += ',';
        value(v[i], "", depth + 1);
      }
      space();
      out_ += ']';
    } else if (v.is_string()) {
      string(v.as_string());
    } else if (v.is_int() && key != "xmem_schema_version" &&
               rng_.next_bool(0.1)) {
      // A fraction, truncated toward zero on the way back in.
      out_ += std::to_string(v.as_int()) + ".75";
    } else {
      out_ += v.dump();
    }
    space();
  }

  void object(const util::Json& v, int depth) {
    std::vector<std::pair<std::string, const util::Json*>> members;
    for (const auto& [key, member] : v.as_object()) {
      if (key == "args" && rng_.next_bool(0.1)) continue;  // dropped args
      members.emplace_back(key, &member);
    }
    for (std::size_t i = members.size(); i > 1; --i) {
      std::swap(members[i - 1], members[rng_.next_below(i)]);
    }
    out_ += '{';
    bool first = true;
    const auto open_member = [&](const std::string& key) {
      if (!first) out_ += ',';
      first = false;
      space();
      string(key);
      space();
      out_ += ':';
    };
    for (const auto& [key, member] : members) {
      // The document's structure stays readable: its top-level keys and
      // an event's category are never mangled.
      const bool keep = depth == 0 || key == "cat";
      if (!keep && rng_.next_bool(0.05)) {
        open_member("x-" + key);  // an unknown key
        junk(0);
      }
      if (!keep && rng_.next_bool(0.05)) {
        open_member(key);  // repeated: the real value after it wins
        junk(0);
      }
      open_member(key);
      if (!keep && rng_.next_bool(0.05)) {
        junk(0);  // wrong-typed: the field reads as its default
      } else {
        value(*member, key, depth + 1);
      }
    }
    space();
    out_ += '}';
  }

  util::Rng rng_;
  std::string out_;
};

std::string outcome(const std::string& text,
                    trace::Trace (*read)(std::string_view), trace::Trace& t) {
  try {
    t = read(text);
    return "ok";
  } catch (const util::JsonParseError& error) {
    return std::string("JsonParseError: ") + error.what();
  } catch (const std::runtime_error& error) {
    return std::string("runtime_error: ") + error.what();
  }
}

class ReformattedTraceProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReformattedTraceProperty, DirectReaderReturnsTheDomReadersEvents) {
  static const trace::Trace source = [] {
    core::ProfileOptions options;
    options.iterations = 1;
    trace::Trace t = core::profile_on_cpu(
        models::build_model("distilgpt2", 2), fw::OptimizerKind::kAdamW,
        options);
    t.events.resize(std::min<std::size_t>(t.events.size(), 120));
    t.events[1].name = "named \"quote\" \\ tab\t \xC3\xA9";
    return t;
  }();
  const util::Json doc = util::Json::parse(source.to_json_string());
  Reformatter reformatter(GetParam());
  for (int i = 0; i < 20; ++i) {
    const std::string text = reformatter.write(doc);
    trace::Trace direct;
    trace::Trace reference;
    const std::string result =
        outcome(text, &trace::Trace::from_json_string, direct);
    ASSERT_EQ(result, outcome(text, &trace::dom::from_json_string, reference))
        << text;
    if (result == "ok") {
      ASSERT_EQ(trace::dom::difference(direct, reference), "") << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReformattedTraceProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace xmem
