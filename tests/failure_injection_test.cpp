// Failure-injection tests: corrupted traces, adversarial replay sequences,
// capacity edge cases, and mid-run OOM behaviour. The pipeline must either
// degrade gracefully (count + skip) or fail loudly (throw) — never corrupt
// state silently.
#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/orchestrator.h"
#include "core/profile_runner.h"
#include "core/simulator.h"
#include "core/estimation_service.h"
#include "fw/executor.h"
#include "fw/memory_env.h"
#include "gpu/ground_truth.h"
#include "models/zoo.h"
#include "trace_dom_reference.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace xmem {
namespace {

using util::kMiB;

// ---------- corrupted trace inputs ----------

trace::Trace healthy_trace() {
  const fw::ModelDescriptor model = models::build_model("MobileNetV2", 8);
  return core::profile_on_cpu(model, fw::OptimizerKind::kAdam);
}

TEST(FailureInjection, AnalyzerSurvivesDroppedFrees) {
  trace::Trace t = healthy_trace();
  // Drop every third deallocation event: blocks become "persistent".
  std::vector<trace::TraceEvent> kept;
  int dropped = 0, counter = 0;
  for (const auto& e : t.events) {
    if (e.kind == trace::EventKind::kCpuInstantEvent && e.bytes < 0 &&
        ++counter % 3 == 0) {
      ++dropped;
      continue;
    }
    kept.push_back(e);
  }
  t.events = std::move(kept);
  ASSERT_GT(dropped, 0);
  const auto out = core::Analyzer().analyze(t);
  // Dropped frees surface as persistent blocks, not crashes.
  EXPECT_GE(out.stats.persistent_blocks, static_cast<std::size_t>(dropped));
}

TEST(FailureInjection, AnalyzerSurvivesDuplicatedFrees) {
  trace::Trace t = healthy_trace();
  std::vector<trace::TraceEvent> doubled;
  for (const auto& e : t.events) {
    doubled.push_back(e);
    if (e.kind == trace::EventKind::kCpuInstantEvent && e.bytes < 0) {
      doubled.push_back(e);  // double free
    }
  }
  t.events = std::move(doubled);
  const auto out = core::Analyzer().analyze(t);
  EXPECT_GT(out.stats.unmatched_frees, 0u);
}

TEST(FailureInjection, AnalyzerSurvivesShuffledMemoryEvents) {
  trace::Trace t = healthy_trace();
  // Shuffle a window of memory events (profilers can emit out-of-order
  // timestamps across threads). The Analyzer must not crash and must still
  // produce a usable timeline.
  util::Rng rng(5);
  std::vector<std::size_t> mem_indices;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    if (t.events[i].kind == trace::EventKind::kCpuInstantEvent) {
      mem_indices.push_back(i);
    }
  }
  for (std::size_t k = 0; k + 1 < 50 && k + 1 < mem_indices.size(); k += 2) {
    std::swap(t.events[mem_indices[k]], t.events[mem_indices[k + 1]]);
  }
  const auto out = core::Analyzer().analyze(t);
  EXPECT_FALSE(out.timeline.blocks.empty());
}

/// The exception `read` throws on `text` as "<type>: <message>".
std::string rejection(const std::string& text,
                      trace::Trace (*read)(std::string_view)) {
  try {
    read(text);
  } catch (const util::JsonParseError& error) {
    return std::string("JsonParseError: ") + error.what();
  } catch (const std::runtime_error& error) {
    return std::string("runtime_error: ") + error.what();
  }
  return "accepted";
}

TEST(FailureInjection, TruncatedJsonThrows) {
  // Cut a small trace at every byte: each prefix is rejected, with the
  // DOM reader's exception type and message.
  trace::Trace t = healthy_trace();
  t.events.resize(24);
  t.events[0].name = "esc \"\\\t\u00e9";
  const std::string json = t.to_json_string();
  for (std::size_t cut = 0; cut < json.size(); ++cut) {
    const std::string truncated = json.substr(0, cut);
    const std::string direct =
        rejection(truncated, &trace::Trace::from_json_string);
    ASSERT_NE(direct, "accepted") << cut;
    ASSERT_EQ(direct, rejection(truncated, &trace::dom::from_json_string))
        << cut;
  }
}

TEST(FailureInjection, EmptyTraceRejected) {
  trace::Trace empty;
  EXPECT_THROW(core::Analyzer().analyze(empty), std::runtime_error);
}

// ---------- adversarial replay sequences ----------

TEST(FailureInjection, SimulatorIgnoresFreeOfUnknownBlock) {
  core::OrchestratedSequence seq;
  seq.events.push_back(core::OrchestratedEvent{0, 42, 4 * kMiB, false});
  const auto result = core::MemorySimulator().replay(seq);
  EXPECT_FALSE(result.oom);
  EXPECT_EQ(result.peak_reserved, 0);
}

TEST(FailureInjection, SimulatorStopsCleanlyAtOom) {
  core::OrchestratedSequence seq;
  for (std::int64_t i = 0; i < 10; ++i) {
    seq.events.push_back(
        core::OrchestratedEvent{i, i + 1, 10 * kMiB, true});
  }
  core::SimulationOptions options;
  options.capacity = 35 * kMiB;
  const auto result = core::MemorySimulator().replay(seq, options);
  EXPECT_TRUE(result.oom);
  // Peak never exceeds capacity.
  EXPECT_LE(result.peak_reserved, options.capacity);
}

// ---------- capacity edge cases ----------

TEST(FailureInjection, GroundTruthWithMinusculeBudget) {
  const fw::ModelDescriptor model = models::build_model("MobileNetV2", 8);
  gpu::GroundTruthRunner runner;
  gpu::GroundTruthOptions options;
  options.budget_override = 1;  // clamped to one driver page
  const auto result = runner.run(model, fw::OptimizerKind::kSgd,
                                 gpu::rtx3060(), options);
  EXPECT_TRUE(result.oom);
  EXPECT_LE(result.peak_job_bytes, alloc::SimulatedCudaDriver::kPageSize);
}

TEST(FailureInjection, OomAbortsMidIterationWithConsistentState) {
  // A budget that admits the parameters but not the activations: the
  // executor must throw OomError exactly once and the allocator counters
  // must balance at the abort point.
  const fw::ModelDescriptor model = models::build_model("gpt2", 30);
  alloc::SimulatedCudaDriver driver(2 * util::kGiB);
  alloc::CachingAllocatorSim allocator(driver);
  util::SimClock clock;
  gpu::NvmlSampler sampler(clock, driver);
  gpu::GpuMemoryEnv env(allocator, sampler);
  fw::ExecOptions options;
  options.iterations = 3;
  fw::TrainingExecutor executor(model, fw::OptimizerKind::kAdam,
                                fw::Backend::kCuda, env, clock, nullptr,
                                options);
  EXPECT_THROW(executor.run(), fw::OomError);
  // Everything the allocator handed out is still tracked (no leak of
  // bookkeeping on the exception path).
  EXPECT_EQ(allocator.stats().num_allocs,
            allocator.stats().num_frees +
                static_cast<std::int64_t>(allocator.num_live_blocks()));
  // The device never exceeded its capacity.
  EXPECT_LE(driver.stats().peak_used_bytes, 2 * util::kGiB);
}

TEST(FailureInjection, EstimatorRejectsUnknownModel) {
  core::TrainJob job;
  job.model_name = "NotAModel";
  job.batch_size = 4;
  // The service's validator rejects the name, and so does the profile
  // layer beneath it.
  core::EstimationService service;
  EXPECT_THROW(service.estimate("xMem", job, gpu::rtx3060()),
               std::invalid_argument);
  core::ProfileSession session;
  EXPECT_THROW(session.get(core::ProfileKey::of(job)), std::invalid_argument);
}

TEST(FailureInjection, OrchestratorHandlesEmptyTimeline) {
  core::MemoryTimeline timeline;
  timeline.iterations = {{0, 100}};
  const auto out = core::Orchestrator().orchestrate(timeline);
  EXPECT_TRUE(out.sequence.events.empty());
  const auto sim = core::MemorySimulator().replay(out.sequence);
  EXPECT_EQ(sim.peak_reserved, 0);
}

// ---------- estimation still works under trace degradation ----------

TEST(FailureInjection, EstimateDegradesGracefullyWithMissingAnnotations) {
  // Remove the zero_grad annotations: rule 4 loses its anchor and gradients
  // become persistent in the replay — a (conservative) overestimate, not a
  // crash.
  const fw::ModelDescriptor model = models::build_model("distilgpt2", 4);
  trace::Trace t = core::profile_on_cpu(model, fw::OptimizerKind::kAdamW);
  std::vector<trace::TraceEvent> kept;
  for (const auto& e : t.events) {
    if (e.kind == trace::EventKind::kUserAnnotation &&
        e.name.rfind("Optimizer.zero_grad", 0) == 0) {
      continue;
    }
    kept.push_back(e);
  }
  t.events = std::move(kept);

  const auto full = core::Analyzer().analyze(
      core::profile_on_cpu(model, fw::OptimizerKind::kAdamW));
  const auto degraded = core::Analyzer().analyze(t);
  const auto full_sim = core::MemorySimulator().replay(
      core::Orchestrator().orchestrate(full.timeline).sequence);
  const auto degraded_sim = core::MemorySimulator().replay(
      core::Orchestrator().orchestrate(degraded.timeline).sequence);
  EXPECT_GE(degraded_sim.peak_reserved, full_sim.peak_reserved);
}

}  // namespace
}  // namespace xmem
