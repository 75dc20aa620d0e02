// Analyzer unit tests on hand-built traces: lifecycle reconstruction,
// address reuse, attribution (missing, instant and repeated parents, ops
// out of start order), filtering, phase tagging.
#include <gtest/gtest.h>

#include "core/analyzer.h"

namespace xmem::core {
namespace {

using trace::EventKind;
using trace::Trace;
using trace::TraceEvent;

struct TraceBuilder {
  Trace trace;
  std::int64_t next_id = 0;

  std::int64_t span(EventKind kind, const std::string& name, util::TimeUs ts,
                    util::TimeUs dur, std::int64_t parent = -1,
                    std::int64_t seq = -1) {
    TraceEvent e;
    e.kind = kind;
    e.name = name;
    e.ts = ts;
    e.dur = dur;
    e.id = next_id++;
    e.parent_id = parent;
    e.seq = seq;
    trace.add(e);
    return e.id;
  }

  void alloc(std::uint64_t addr, std::int64_t bytes, util::TimeUs ts) {
    TraceEvent e;
    e.kind = EventKind::kCpuInstantEvent;
    e.name = "[memory]";
    e.addr = addr;
    e.bytes = bytes;
    e.ts = ts;
    e.id = next_id++;
    trace.add(e);
  }
  void free(std::uint64_t addr, std::int64_t bytes, util::TimeUs ts) {
    alloc(addr, -bytes, ts);
  }
};

/// A miniature but complete two-iteration trace exercising every rule:
///   Module.to [0,10)       -> param 0xA0 (1000 B), persistent
///   Step#0 [10,100):
///     dataloader [10,20)   -> batch 0xB1 (500 B), freed late at t=96
///     zero_grad [20,22)
///     module fwd [22,50)   -> script noise 0xAAAA (64 B) at t=23 (outside op)
///        op addmm [25,40)  -> activation 0xC0 (300 B) freed at 60
///     backward [50,70)
///        op addmm_backward [52,68) -> gradient 0xD0 (1000 B) freed late t=97
///     optimizer.step [70,90)
///        op zeros_like [72,80)     -> state 0xE0 (1000 B), persistent
///   Step#1 [100,200):
///     dataloader [100,108) -> batch 0xB2 (500 B), never freed (trace ends)
///     zero_grad [110,115)
TraceBuilder make_standard_trace() {
  TraceBuilder b;
  b.span(EventKind::kUserAnnotation, "Module.to", 0, 10);
  {
    const auto op = b.span(EventKind::kCpuOp, "aten::empty", 1, 8);
    (void)op;
    b.alloc(0xA0, 1000, 2);
  }
  b.span(EventKind::kUserAnnotation, "ProfilerStep#0", 10, 90);
  b.span(EventKind::kUserAnnotation, "dataloader.__next__", 10, 10);
  b.span(EventKind::kCpuOp, "aten::stack", 11, 3);
  b.alloc(0xB1, 500, 12);
  b.span(EventKind::kUserAnnotation, "Optimizer.zero_grad#SGD.zero_grad", 20, 2);
  const auto module_id =
      b.span(EventKind::kPythonFunction, "nn.Module: Linear_0", 22, 28);
  b.alloc(0xAAAA, 64, 23);  // script noise: outside any op window
  b.free(0xAAAA, 64, 24);
  b.span(EventKind::kCpuOp, "aten::addmm", 25, 15, module_id, 1);
  b.alloc(0xC0, 300, 30);
  b.span(EventKind::kUserAnnotation, "autograd::engine::execute", 50, 20);
  b.span(EventKind::kCpuOp, "aten::addmm_backward", 52, 16, -1, 1);
  b.alloc(0xD0, 1000, 55);
  b.free(0xC0, 300, 60);
  b.span(EventKind::kUserAnnotation, "Optimizer.step#SGD.step", 70, 20);
  b.span(EventKind::kCpuOp, "aten::zeros_like", 72, 8);
  b.alloc(0xE0, 1000, 75);
  b.free(0xB1, 500, 96);  // deferred GC
  b.free(0xD0, 1000, 97);  // deferred GC
  b.span(EventKind::kUserAnnotation, "ProfilerStep#1", 100, 100);
  b.span(EventKind::kUserAnnotation, "dataloader.__next__", 100, 8);
  b.span(EventKind::kCpuOp, "aten::stack", 101, 3);
  b.alloc(0xB2, 500, 102);
  b.span(EventKind::kUserAnnotation, "Optimizer.zero_grad#SGD.zero_grad", 110, 5);
  return b;
}

const MemoryBlock* find_block(const MemoryTimeline& tl, std::int64_t size,
                              util::TimeUs alloc_ts) {
  for (const auto& block : tl.blocks) {
    if (block.size == size && block.alloc_ts == alloc_ts) return &block;
  }
  return nullptr;
}

TEST(Analyzer, ReconstructsLifecyclesAndPhases) {
  const auto out = Analyzer().analyze(make_standard_trace().trace);
  const MemoryTimeline& tl = out.timeline;

  ASSERT_EQ(tl.iterations.size(), 2u);
  EXPECT_EQ(tl.zero_grads.size(), 2u);
  EXPECT_EQ(tl.optimizer_steps.size(), 1u);
  EXPECT_EQ(tl.dataloaders.size(), 2u);
  EXPECT_EQ(tl.backwards.size(), 1u);

  const MemoryBlock* param = find_block(tl, 1000, 2);
  ASSERT_NE(param, nullptr);
  EXPECT_EQ(param->phase, Phase::kModelLoad);
  EXPECT_TRUE(param->persistent());
  EXPECT_EQ(param->iteration, -1);

  const MemoryBlock* batch = find_block(tl, 500, 12);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->phase, Phase::kDataLoader);
  EXPECT_EQ(batch->free_ts, 96);
  EXPECT_EQ(batch->iteration, 0);

  const MemoryBlock* act = find_block(tl, 300, 30);
  ASSERT_NE(act, nullptr);
  EXPECT_EQ(act->phase, Phase::kForward);
  EXPECT_EQ(act->free_ts, 60);
  EXPECT_EQ(act->op_name, "aten::addmm");
  EXPECT_EQ(act->component, "nn.Module: Linear_0");
  EXPECT_EQ(act->seq, 1);

  const MemoryBlock* grad = find_block(tl, 1000, 55);
  ASSERT_NE(grad, nullptr);
  EXPECT_EQ(grad->phase, Phase::kBackward);
  EXPECT_EQ(grad->free_ts, 97);

  const MemoryBlock* state = find_block(tl, 1000, 75);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->phase, Phase::kOptimizerStep);
  EXPECT_TRUE(state->persistent());

  // Script noise was dropped.
  EXPECT_EQ(find_block(tl, 64, 23), nullptr);
  EXPECT_EQ(out.stats.filtered_blocks, 1u);

  // Param sizes for the orchestrator.
  ASSERT_EQ(tl.param_sizes.size(), 1u);
  EXPECT_EQ(tl.param_sizes[0], 1000);
}

TEST(Analyzer, HandlesAddressReuse) {
  TraceBuilder b;
  b.span(EventKind::kUserAnnotation, "ProfilerStep#0", 0, 100);
  b.span(EventKind::kCpuOp, "aten::empty", 0, 100);
  b.alloc(0x10, 100, 10);
  b.free(0x10, 100, 20);
  b.alloc(0x10, 200, 30);  // same address, new block
  b.free(0x10, 200, 40);
  b.alloc(0x10, 300, 50);  // and again, this one persists
  const auto out = Analyzer().analyze(b.trace);
  ASSERT_EQ(out.timeline.blocks.size(), 3u);
  EXPECT_EQ(out.stats.address_reuses, 2u);
  EXPECT_EQ(out.stats.matched_pairs, 2u);
  EXPECT_EQ(out.stats.persistent_blocks, 1u);
  EXPECT_EQ(out.timeline.blocks[0].free_ts, 20);
  EXPECT_EQ(out.timeline.blocks[1].free_ts, 40);
  EXPECT_TRUE(out.timeline.blocks[2].persistent());
}

TEST(Analyzer, CountsUnmatchedFrees) {
  TraceBuilder b;
  b.span(EventKind::kUserAnnotation, "ProfilerStep#0", 0, 100);
  b.free(0x99, 100, 10);
  const auto out = Analyzer().analyze(b.trace);
  EXPECT_EQ(out.stats.unmatched_frees, 1u);
  EXPECT_TRUE(out.timeline.blocks.empty());
}

TEST(Analyzer, ThrowsWithoutIterationMarkers) {
  TraceBuilder b;
  b.span(EventKind::kCpuOp, "aten::empty", 0, 10);
  b.alloc(0x1, 100, 1);
  EXPECT_THROW(Analyzer().analyze(b.trace), std::runtime_error);
}

TEST(Analyzer, BlocksAreTimeOrdered) {
  const auto out = Analyzer().analyze(make_standard_trace().trace);
  for (std::size_t i = 1; i < out.timeline.blocks.size(); ++i) {
    EXPECT_LE(out.timeline.blocks[i - 1].alloc_ts,
              out.timeline.blocks[i].alloc_ts);
  }
}

TEST(Analyzer, SurvivesJsonRoundTrip) {
  const Trace original = make_standard_trace().trace;
  const Trace reparsed = Trace::from_json_string(original.to_json_string());
  const auto a = Analyzer().analyze(original);
  const auto b = Analyzer().analyze(reparsed);
  ASSERT_EQ(a.timeline.blocks.size(), b.timeline.blocks.size());
  for (std::size_t i = 0; i < a.timeline.blocks.size(); ++i) {
    EXPECT_EQ(a.timeline.blocks[i].size, b.timeline.blocks[i].size);
    EXPECT_EQ(a.timeline.blocks[i].alloc_ts, b.timeline.blocks[i].alloc_ts);
    EXPECT_EQ(a.timeline.blocks[i].free_ts, b.timeline.blocks[i].free_ts);
    EXPECT_EQ(a.timeline.blocks[i].phase, b.timeline.blocks[i].phase);
  }
}

// Operator attribution. The analyzer keeps each op's name and component
// as pointers into the trace; these pin the lookups those pointers come
// from.

TEST(Analyzer, OpWithAMissingParentHasNoComponent) {
  TraceBuilder b;
  b.span(EventKind::kUserAnnotation, "ProfilerStep#0", 0, 100);
  b.span(EventKind::kCpuOp, "aten::mm", 10, 10, /*parent=*/999);
  b.alloc(0x10, 100, 12);
  const auto out = Analyzer().analyze(b.trace);
  ASSERT_EQ(out.timeline.blocks.size(), 1u);
  EXPECT_EQ(out.timeline.blocks[0].op_name, "aten::mm");
  EXPECT_EQ(out.timeline.blocks[0].component, "");
}

TEST(Analyzer, InstantEventsAreNeverParents) {
  TraceBuilder b;
  b.span(EventKind::kUserAnnotation, "ProfilerStep#0", 0, 100);
  b.alloc(0x20, 64, 5);  // a memory event outside every op
  const std::int64_t instant_id = b.trace.events.back().id;
  b.span(EventKind::kCpuOp, "aten::mm", 10, 10, instant_id);
  b.alloc(0x10, 100, 12);
  const auto out = Analyzer().analyze(b.trace);
  ASSERT_EQ(out.timeline.blocks.size(), 1u);
  EXPECT_EQ(out.timeline.blocks[0].op_name, "aten::mm");
  EXPECT_EQ(out.timeline.blocks[0].component, "");
  EXPECT_EQ(out.stats.filtered_blocks, 1u);
}

TEST(Analyzer, RepeatedSpanIdResolvesToTheLastSpan) {
  TraceBuilder b;
  b.span(EventKind::kUserAnnotation, "ProfilerStep#0", 0, 100);
  const std::int64_t module_id =
      b.span(EventKind::kPythonFunction, "nn.Module: First", 5, 30);
  b.span(EventKind::kCpuOp, "aten::mm", 10, 10, module_id);
  b.alloc(0x10, 100, 12);
  // A later span reuses the id; it is the parent even though it comes
  // after the op.
  b.span(EventKind::kPythonFunction, "nn.Module: Second", 40, 30);
  b.trace.events.back().id = module_id;
  const auto out = Analyzer().analyze(b.trace);
  ASSERT_EQ(out.timeline.blocks.size(), 1u);
  EXPECT_EQ(out.timeline.blocks[0].component, "nn.Module: Second");
}

TEST(Analyzer, OpsOutOfStartOrderStillOwnTheirBlocks) {
  TraceBuilder b;
  b.span(EventKind::kUserAnnotation, "ProfilerStep#0", 0, 100);
  const std::int64_t late_parent =
      b.span(EventKind::kPythonFunction, "nn.Module: Late", 50, 20);
  const std::int64_t early_parent =
      b.span(EventKind::kPythonFunction, "nn.Module: Early", 10, 20);
  b.span(EventKind::kCpuOp, "aten::late", 50, 10, late_parent, 7);
  b.span(EventKind::kCpuOp, "aten::early", 10, 10, early_parent, 3);
  b.alloc(0x20, 200, 55);
  b.alloc(0x10, 100, 15);
  b.alloc(0x30, 300, 40);  // between the ops: filtered
  const auto out = Analyzer().analyze(b.trace);
  ASSERT_EQ(out.timeline.blocks.size(), 2u);
  const MemoryBlock& early = out.timeline.blocks[0];
  EXPECT_EQ(early.alloc_ts, 15);
  EXPECT_EQ(early.op_name, "aten::early");
  EXPECT_EQ(early.component, "nn.Module: Early");
  EXPECT_EQ(early.seq, 3);
  const MemoryBlock& late = out.timeline.blocks[1];
  EXPECT_EQ(late.alloc_ts, 55);
  EXPECT_EQ(late.op_name, "aten::late");
  EXPECT_EQ(late.component, "nn.Module: Late");
  EXPECT_EQ(late.seq, 7);
  EXPECT_EQ(out.stats.filtered_blocks, 1u);
}

}  // namespace
}  // namespace xmem::core
