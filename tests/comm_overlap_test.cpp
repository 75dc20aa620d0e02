// Overlap-window communication simulation fidelity suite (ctest label:
// replay).
//
// The rank-sequence transform's comm_overlap mode replaces resident
// collective staging buffers with schedule-tied windows (paired alloc/free
// events). This suite pins the contract from both sides:
//
//   * resident mode (the default) is byte-identical to the legacy formula —
//     `ddp_bucket_count` buckets at the first backward block, one TP
//     staging buffer sized like the largest forward block (replicated
//     components included, the deliberately coarse legacy rule), one ZeRO-3
//     all-gather arena sized by the largest TP-sharded parameter block;
//   * window-mode live collective bytes never exceed resident-mode at any
//     event index (the invariant the planner's re-ranking rests on);
//   * DDP bucket births/releases are monotone, each bucket is capped at
//     ddp_bucket_bytes, and at most ddp_bucket_count are live;
//   * every ZeRO-3 gather is exactly one alloc paired with exactly one
//     later free, windows are serialized (prefetch depth 1), and each is
//     bounded by the resident arena;
//   * TP staging in window mode is sized from the blocks that actually
//     all-reduce (replicated components no longer inflate it) — both
//     formulas pinned to exact bytes;
//   * a seeded fuzz drives random (d, t, chunks, zero, bucket) configs
//     through both modes and replays them via every registered allocator
//     backend: no crashes, and the tensor-level peak in window mode never
//     exceeds resident mode. Failures shrink to a minimal block list, the
//     same debugging contract as alloc_parity_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc/backend_registry.h"
#include "core/sequence_transform.h"
#include "core/simulator.h"
#include "rank_sequence_reference.h"
#include "util/rng.h"

namespace xmem {
namespace {

using core::CollectiveBuffer;
using core::ComponentProfile;
using core::MemoryBlock;
using core::MemorySimulator;
using core::OrchestratedEvent;
using core::OrchestratedSequence;
using core::Phase;
using core::PipelineStage;
using core::RankScratch;
using core::RankTransformOptions;
using core::SequenceTransformer;
using core::SimulationOptions;
using core::ZeroStage;

MemoryBlock block(std::int64_t id, std::int64_t size, util::TimeUs alloc_ts,
                  util::TimeUs free_ts, const std::string& component,
                  Phase phase) {
  MemoryBlock b;
  b.id = id;
  b.size = size;
  b.alloc_ts = alloc_ts;
  b.free_ts = free_ts;
  b.component = component;
  b.phase = phase;
  return b;
}

OrchestratedSequence sequence_from_blocks(std::vector<MemoryBlock> blocks) {
  OrchestratedSequence sequence;
  sequence.blocks = std::move(blocks);
  for (const MemoryBlock& b : sequence.blocks) {
    sequence.events.push_back(
        OrchestratedEvent{b.alloc_ts, b.id, b.size, true});
    if (!b.persistent()) {
      sequence.events.push_back(
          OrchestratedEvent{b.free_ts, b.id, b.size, false});
    }
  }
  return sequence;
}

/// Hand-built training iteration with every phase the windows key on. The
/// largest forward block (1200 B) belongs to the replicated Norm component
/// on purpose: the legacy TP formula counts it, the window formula must
/// not.
OrchestratedSequence base_sequence() {
  return sequence_from_blocks({
      block(1, 1000, 10, -1, "Embedding.0", Phase::kModelLoad),
      block(2, 2000, 11, -1, "Block.1", Phase::kModelLoad),
      block(3, 2400, 12, -1, "Block.2", Phase::kModelLoad),
      block(4, 1600, 13, -1, "Block.3", Phase::kModelLoad),
      block(5, 64, 14, -1, "Norm.4", Phase::kModelLoad),
      block(6, 500, 20, 66, "loader.batch", Phase::kDataLoader),
      block(7, 800, 30, 58, "Block.1", Phase::kForward),
      block(8, 900, 33, 54, "Block.2", Phase::kForward),
      block(9, 400, 34, 35, "Block.2", Phase::kForward),  // op workspace
      block(10, 700, 36, 50, "Block.3", Phase::kForward),
      block(11, 1200, 38, 48, "Norm.4", Phase::kForward),
      block(12, 1500, 50, 60, "Block.3", Phase::kBackward),
      block(13, 1800, 54, 62, "Block.2", Phase::kBackward),
      block(14, 1700, 58, 64, "Block.1", Phase::kBackward),
      block(15, 4000, 70, -1, "Block.1", Phase::kOptimizerStep),
      block(16, 4400, 72, -1, "Block.2", Phase::kOptimizerStep),
      block(17, 3600, 74, -1, "Block.3", Phase::kOptimizerStep),
  });
}

std::vector<ComponentProfile> base_profiles() {
  return {
      ComponentProfile{"Embedding.0", 1000, 0, 0, 0},
      ComponentProfile{"Block.1", 2000, 4000, 800, 0},
      ComponentProfile{"Block.2", 2400, 4400, 900, 400},
      ComponentProfile{"Block.3", 1600, 3600, 700, 0},
      ComponentProfile{"Norm.4", 64, 0, 1200, 0},
  };
}

std::set<std::int64_t> collective_ids(const RankScratch& scratch) {
  std::set<std::int64_t> ids;
  for (const CollectiveBuffer& b : scratch.buffers) ids.insert(b.block_id);
  return ids;
}

/// Live collective bytes after all events at each timestamp have been
/// processed. Frees sort before allocs on equal timestamps, so within one
/// timestamp the live total only dips then rises: its intra-timestamp
/// maximum is max(previous end value, this end value), and comparing
/// end-of-timestamp values over the union of timestamps is a complete
/// dominance check for the step functions.
std::map<util::TimeUs, std::int64_t> live_collective_series(
    const OrchestratedSequence& sequence, const std::set<std::int64_t>& ids) {
  std::map<util::TimeUs, std::int64_t> series;
  std::int64_t live = 0;
  for (const OrchestratedEvent& event : sequence.events) {
    if (ids.count(event.block_id) != 0) {
      live += event.is_alloc ? event.bytes : -event.bytes;
    }
    series[event.ts] = live;
  }
  return series;
}

std::int64_t series_value_at(
    const std::map<util::TimeUs, std::int64_t>& series, util::TimeUs ts) {
  auto it = series.upper_bound(ts);
  if (it == series.begin()) return 0;
  return std::prev(it)->second;
}

/// "" when window-mode live collective bytes are bounded by resident-mode
/// at every event index; a description of the first violation otherwise.
std::string check_dominance(const OrchestratedSequence& window_sequence,
                            const RankScratch& window_scratch,
                            const OrchestratedSequence& resident_sequence,
                            const RankScratch& resident_scratch) {
  const auto window_series =
      live_collective_series(window_sequence, collective_ids(window_scratch));
  const auto resident_series = live_collective_series(
      resident_sequence, collective_ids(resident_scratch));
  std::set<util::TimeUs> timestamps;
  for (const auto& [ts, live] : window_series) timestamps.insert(ts);
  for (const auto& [ts, live] : resident_series) timestamps.insert(ts);
  for (const util::TimeUs ts : timestamps) {
    const std::int64_t window = series_value_at(window_series, ts);
    const std::int64_t resident = series_value_at(resident_series, ts);
    if (window > resident) {
      std::ostringstream message;
      message << "window live collective bytes " << window
              << " > resident " << resident << " at ts " << ts;
      return message.str();
    }
  }
  return "";
}

/// Max simultaneously-live buffers of one kind, walking the sorted events.
int max_live_of_kind(const OrchestratedSequence& sequence,
                     const RankScratch& scratch, const std::string& kind) {
  std::set<std::int64_t> ids;
  for (const CollectiveBuffer& b : scratch.buffers) {
    if (b.kind == kind) ids.insert(b.block_id);
  }
  int live = 0;
  int peak = 0;
  for (const OrchestratedEvent& event : sequence.events) {
    if (ids.count(event.block_id) == 0) continue;
    live += event.is_alloc ? 1 : -1;
    peak = std::max(peak, live);
  }
  return peak;
}

std::vector<CollectiveBuffer> buffers_of_kind(const RankScratch& scratch,
                                              const std::string& kind) {
  std::vector<CollectiveBuffer> out;
  for (const CollectiveBuffer& b : scratch.buffers) {
    if (b.kind == kind) out.push_back(b);
  }
  return out;
}

RankTransformOptions overlap_options(int d, int t, ZeroStage zero,
                                     std::int64_t bucket_bytes,
                                     int bucket_count) {
  RankTransformOptions options;
  options.data_parallel = d;
  options.tensor_parallel = t;
  options.zero = zero;
  options.ddp_bucket_bytes = bucket_bytes;
  options.ddp_bucket_count = bucket_count;
  options.comm_overlap = true;
  return options;
}

// ---------- resident mode: the legacy formula, pinned exactly ----------

TEST(CommOverlap, ResidentModeMatchesLegacyFormulaExactly) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  RankTransformOptions options =
      overlap_options(2, 2, ZeroStage::kFull, 1 << 20, 2);
  options.comm_overlap = false;  // resident: the pre-window behavior
  RankScratch scratch;
  const OrchestratedSequence& out =
      transformer.rank_sequence(options, {}, 1, 0, scratch);

  ASSERT_EQ(scratch.buffers.size(), 4u);
  // Two DDP buckets at the first backward block, resident.
  EXPECT_EQ(scratch.buffers[0].kind, "ddp_bucket");
  EXPECT_EQ(scratch.buffers[0].bytes, 1 << 20);
  EXPECT_EQ(scratch.buffers[0].alloc_ts, 50);
  EXPECT_EQ(scratch.buffers[0].free_ts, -1);
  EXPECT_EQ(scratch.buffers[1].kind, "ddp_bucket");
  EXPECT_EQ(scratch.buffers[1].alloc_ts, 50);
  // ZeRO-3 arena: largest TP-sharded, un-DP-sharded parameter block —
  // Block.2's 2400 / t = 1200 — at the first event of the sequence.
  EXPECT_EQ(scratch.buffers[2].kind, "zero3_allgather");
  EXPECT_EQ(scratch.buffers[2].bytes, 1200);
  EXPECT_EQ(scratch.buffers[2].alloc_ts, 10);
  EXPECT_EQ(scratch.buffers[2].free_ts, -1);
  // Legacy TP staging: the largest post-shard forward block. Norm.4 is
  // replicated (never all-reduced) but its 1200 B block still wins after
  // the batch shard (1200 / d = 600) — the coarse rule resident mode keeps
  // for golden stability.
  EXPECT_EQ(scratch.buffers[3].kind, "tp_allreduce");
  EXPECT_EQ(scratch.buffers[3].bytes, 600);
  EXPECT_EQ(scratch.buffers[3].alloc_ts, 30);
  EXPECT_EQ(scratch.buffers[3].free_ts, -1);

  // Resident buffers never free: no free event names a collective id.
  const auto ids = collective_ids(scratch);
  for (const OrchestratedEvent& event : out.events) {
    if (!event.is_alloc) {
      EXPECT_EQ(ids.count(event.block_id), 0u);
    }
  }
}

// ---------- the dominance invariant ----------

TEST(CommOverlap, WindowLiveCollectiveBytesNeverExceedResident) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  const std::vector<RankTransformOptions> configs = {
      overlap_options(4, 1, ZeroStage::kOptimizerGradient, 400, 2),
      overlap_options(2, 2, ZeroStage::kFull, 1024, 2),
      overlap_options(1, 2, ZeroStage::kNone, 1 << 20, 2),
      overlap_options(8, 4, ZeroStage::kFull, 256, 3),
      overlap_options(2, 1, ZeroStage::kOptimizer, 1 << 20, 1),
  };
  for (const RankTransformOptions& config : configs) {
    RankTransformOptions resident_config = config;
    resident_config.comm_overlap = false;
    RankScratch window_scratch, resident_scratch;
    const OrchestratedSequence& window =
        transformer.rank_sequence(config, {}, 1, 0, window_scratch);
    // Copy: the next rank_sequence call reuses the other scratch.
    const OrchestratedSequence window_copy = window;
    const OrchestratedSequence& resident =
        transformer.rank_sequence(resident_config, {}, 1, 0, resident_scratch);
    const std::string violation = check_dominance(
        window_copy, window_scratch, resident, resident_scratch);
    EXPECT_EQ(violation, "")
        << "d=" << config.data_parallel << " t=" << config.tensor_parallel
        << " zero=" << static_cast<int>(config.zero);
  }
}

// ---------- DDP bucket lifecycle ----------

TEST(CommOverlap, BucketBirthsAndReleasesAreMonotoneCappedAndBounded) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  // d=4, zero stage 2: backward bytes shard to 375/450/425 at ts 50/54/58.
  // A 400 B bucket threshold fills at ts 54 and again at ts 58.
  RankScratch scratch;
  const OrchestratedSequence& out = transformer.rank_sequence(
      overlap_options(4, 1, ZeroStage::kOptimizerGradient, 400, 2), {}, 1, 0,
      scratch);

  const auto buckets = buffers_of_kind(scratch, "ddp_bucket");
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].alloc_ts, 54);
  EXPECT_EQ(buckets[1].alloc_ts, 58);
  // Both trail the depth, so both drain at the optimizer step (ts 70).
  EXPECT_EQ(buckets[0].free_ts, 70);
  EXPECT_EQ(buckets[1].free_ts, 70);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i].bytes, 400) << "bucket " << i;
    EXPECT_GT(buckets[i].free_ts, buckets[i].alloc_ts) << "bucket " << i;
    if (i > 0) {
      EXPECT_GT(buckets[i].alloc_ts, buckets[i - 1].alloc_ts)
          << "births must be strictly increasing";
      EXPECT_GE(buckets[i].free_ts, buckets[i - 1].free_ts)
          << "releases must be monotone";
    }
  }
  EXPECT_LE(max_live_of_kind(out, scratch, "ddp_bucket"), 2);

  // Depth 1: the first bucket must drain when the second is born.
  RankScratch depth1;
  const OrchestratedSequence& out1 = transformer.rank_sequence(
      overlap_options(4, 1, ZeroStage::kOptimizerGradient, 400, 1), {}, 1, 0,
      depth1);
  const auto chain = buffers_of_kind(depth1, "ddp_bucket");
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].free_ts, chain[1].alloc_ts);
  EXPECT_LE(max_live_of_kind(out1, depth1, "ddp_bucket"), 1);
}

// ---------- ZeRO-3 gather/release pairing ----------

TEST(CommOverlap, Zero3GathersArePairedSerializedAndBounded) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  RankScratch scratch;
  const OrchestratedSequence& out = transformer.rank_sequence(
      overlap_options(2, 2, ZeroStage::kFull, 1 << 20, 2), {}, 1, 0, scratch);

  const auto gathers = buffers_of_kind(scratch, "zero3_allgather");
  // Four components run forward, three run backward (the re-gather);
  // Embedding.0 never executes a block, so it gathers nothing.
  ASSERT_EQ(gathers.size(), 7u);
  std::map<std::int64_t, std::pair<int, int>> event_counts;  // id -> {a, f}
  for (const CollectiveBuffer& g : gathers) event_counts[g.block_id] = {0, 0};
  for (const OrchestratedEvent& event : out.events) {
    const auto it = event_counts.find(event.block_id);
    if (it == event_counts.end()) continue;
    (event.is_alloc ? it->second.first : it->second.second) += 1;
  }
  for (std::size_t i = 0; i < gathers.size(); ++i) {
    const CollectiveBuffer& g = gathers[i];
    // Exactly one gather paired with exactly one later release.
    EXPECT_EQ(event_counts[g.block_id].first, 1) << "gather " << i;
    EXPECT_EQ(event_counts[g.block_id].second, 1) << "gather " << i;
    EXPECT_GT(g.free_ts, g.alloc_ts) << "gather " << i;
    // Bounded by the resident arena (Block.2: 2400 / t = 1200).
    EXPECT_LE(g.bytes, 1200) << "gather " << i;
    if (i > 0) {
      EXPECT_LE(gathers[i - 1].free_ts, g.alloc_ts)
          << "gathers must be serialized (prefetch depth 1)";
    }
  }
  EXPECT_LE(max_live_of_kind(out, scratch, "zero3_allgather"), 1);
}

// ---------- TP staging sizing (the fixed formula) ----------

TEST(CommOverlap, TpStagingIsSizedFromSynchronizedBlocksOnly) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  RankTransformOptions window = overlap_options(1, 2, ZeroStage::kNone,
                                                1 << 20, 2);
  RankTransformOptions resident = window;
  resident.comm_overlap = false;

  RankScratch window_scratch, resident_scratch;
  transformer.rank_sequence(window, {}, 1, 0, window_scratch);
  transformer.rank_sequence(resident, {}, 1, 0, resident_scratch);

  const auto resident_tp = buffers_of_kind(resident_scratch, "tp_allreduce");
  const auto window_tp = buffers_of_kind(window_scratch, "tp_allreduce");
  ASSERT_EQ(resident_tp.size(), 1u);
  ASSERT_EQ(window_tp.size(), 1u);
  // Legacy: Norm.4's replicated 1200 B forward block wins even though a
  // replicated component never all-reduces.
  EXPECT_EQ(resident_tp[0].bytes, 1200);
  // Fixed: the largest block that actually synchronizes is Block.2's 900 B
  // forward at 25% activation replication: 225 + ceil(675 / 2) = 563.
  EXPECT_EQ(window_tp[0].bytes, 563);
  // And it lives only across the span the synchronized blocks cover:
  // first sync alloc (ts 30) to the last sync free (Block.1 at ts 58).
  EXPECT_EQ(window_tp[0].alloc_ts, 30);
  EXPECT_EQ(window_tp[0].free_ts, 58);

  // A persistent synchronized block pins the staging resident.
  OrchestratedSequence persistent_base = sequence_from_blocks({
      block(1, 2000, 10, -1, "Block.1", Phase::kModelLoad),
      block(2, 800, 30, -1, "Block.1", Phase::kForward),  // saved activation
  });
  const std::vector<ComponentProfile> one = {
      ComponentProfile{"Block.1", 2000, 4000, 800, 0}};
  const SequenceTransformer pinned(persistent_base, one);
  RankScratch pinned_scratch;
  pinned.rank_sequence(window, {}, 1, 0, pinned_scratch);
  const auto pinned_tp = buffers_of_kind(pinned_scratch, "tp_allreduce");
  ASSERT_EQ(pinned_tp.size(), 1u);
  EXPECT_EQ(pinned_tp[0].free_ts, -1);
}

// ---------- determinism ----------

TEST(CommOverlap, WindowModeIsDeterministic) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer a(base, profiles);
  const SequenceTransformer b(base, profiles);

  const RankTransformOptions options =
      overlap_options(2, 2, ZeroStage::kFull, 1024, 2);
  RankScratch scratch_a, scratch_b;
  const OrchestratedSequence& out_a =
      a.rank_sequence(options, {}, 1, 0, scratch_a);
  const OrchestratedSequence& out_b =
      b.rank_sequence(options, {}, 1, 0, scratch_b);
  ASSERT_EQ(out_a.events.size(), out_b.events.size());
  for (std::size_t i = 0; i < out_a.events.size(); ++i) {
    EXPECT_EQ(out_a.events[i].ts, out_b.events[i].ts);
    EXPECT_EQ(out_a.events[i].block_id, out_b.events[i].block_id);
    EXPECT_EQ(out_a.events[i].bytes, out_b.events[i].bytes);
    EXPECT_EQ(out_a.events[i].is_alloc, out_b.events[i].is_alloc);
  }
  ASSERT_EQ(scratch_a.buffers.size(), scratch_b.buffers.size());
}

// ---------- seeded randomized fuzz across every backend ----------

struct FuzzConfig {
  int d = 1;
  int t = 1;
  ZeroStage zero = ZeroStage::kNone;
  std::int64_t bucket_bytes = 1024;
  int bucket_count = 2;
  std::vector<PipelineStage> chunks;  ///< empty = single stage
  std::size_t ranks = 1;
};

PipelineStage chunk(std::size_t first, std::size_t last) {
  PipelineStage stage;
  stage.first_component = first;
  stage.last_component = last;
  return stage;
}

/// Random model-shaped sequence: per-component persistent params, transient
/// forward/backward blocks (forward frees during backward), sometimes a
/// persistent saved activation, optimizer state, and an unattributed
/// dataloader block.
std::vector<MemoryBlock> random_model_blocks(
    util::Rng& rng, const std::vector<ComponentProfile>& profiles) {
  std::vector<MemoryBlock> blocks;
  std::int64_t id = 1;
  const auto size = [&rng] {
    return static_cast<std::int64_t>(64 + rng.next_below(4096));
  };
  util::TimeUs ts = 10;
  for (const ComponentProfile& profile : profiles) {
    blocks.push_back(
        block(id++, size(), ts++, -1, profile.component, Phase::kModelLoad));
  }
  if (rng.next_below(4) != 0) {
    blocks.push_back(
        block(id++, size(), 20, 460, "loader.batch", Phase::kDataLoader));
  }
  ts = 100;
  for (const ComponentProfile& profile : profiles) {
    const std::size_t count = 1 + rng.next_below(3);
    for (std::size_t j = 0; j < count; ++j) {
      const bool saved = rng.next_below(8) == 0;  // rare persistent forward
      const util::TimeUs alloc = ts + static_cast<util::TimeUs>(j);
      const util::TimeUs free =
          saved ? -1
                : alloc + 200 + static_cast<util::TimeUs>(rng.next_below(150));
      blocks.push_back(
          block(id++, size(), alloc, free, profile.component, Phase::kForward));
    }
    ts += 10;
  }
  ts = 300;
  for (auto it = profiles.rbegin(); it != profiles.rend(); ++it) {
    const std::size_t count = rng.next_below(3);  // 0: component skips bwd
    for (std::size_t j = 0; j < count; ++j) {
      const util::TimeUs alloc = ts + static_cast<util::TimeUs>(j);
      const util::TimeUs free =
          alloc + 10 + static_cast<util::TimeUs>(rng.next_below(150));
      blocks.push_back(
          block(id++, size(), alloc, free, it->component, Phase::kBackward));
    }
    ts += 10;
  }
  if (rng.next_below(4) != 0) {
    ts = 500;
    for (const ComponentProfile& profile : profiles) {
      blocks.push_back(block(id++, size(), ts++, -1, profile.component,
                             Phase::kOptimizerStep));
    }
  }
  return blocks;
}

std::vector<ComponentProfile> random_profiles(util::Rng& rng) {
  std::vector<ComponentProfile> profiles;
  profiles.push_back(ComponentProfile{"Embedding.0", 1000, 0, 0, 0});
  const std::size_t layers = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < layers; ++i) {
    profiles.push_back(ComponentProfile{
        "Block." + std::to_string(i + 1), 2000, 4000, 800, 0});
  }
  profiles.push_back(ComponentProfile{
      "Norm." + std::to_string(layers + 1), 64, 0, 100, 0});
  return profiles;
}

FuzzConfig random_config(util::Rng& rng, std::size_t components) {
  FuzzConfig config;
  const int dims[] = {1, 2, 4, 8};
  config.d = dims[rng.next_below(4)];
  config.t = dims[rng.next_below(3)];
  config.zero = core::zero_stage_from_int(static_cast<int>(rng.next_below(4)));
  config.bucket_bytes = static_cast<std::int64_t>(256 + rng.next_below(4096));
  config.bucket_count = 1 + static_cast<int>(rng.next_below(3));
  if (components >= 2 && rng.next_below(2) == 0) {
    const std::size_t cut = 1 + rng.next_below(components - 1);
    config.chunks = {chunk(0, cut - 1), chunk(cut, components - 1)};
    config.ranks = 2;
  }
  return config;
}

/// "" when every invariant holds for every rank and backend; the first
/// violation otherwise. The fuzz predicate and the shrinker share this.
std::string check_fuzz_invariants(const std::vector<MemoryBlock>& blocks,
                                  const std::vector<ComponentProfile>& profiles,
                                  const FuzzConfig& config) {
  const OrchestratedSequence base = sequence_from_blocks(blocks);
  const SequenceTransformer transformer(base, profiles);
  RankTransformOptions window = overlap_options(
      config.d, config.t, config.zero, config.bucket_bytes,
      config.bucket_count);
  RankTransformOptions resident = window;
  resident.comm_overlap = false;

  for (std::size_t rank = 0; rank < config.ranks; ++rank) {
    RankScratch window_scratch, resident_scratch;
    const OrchestratedSequence window_out = transformer.rank_sequence(
        window, config.chunks, config.ranks, rank, window_scratch);
    const OrchestratedSequence resident_out = transformer.rank_sequence(
        resident, config.chunks, config.ranks, rank, resident_scratch);

    const std::string dominance = check_dominance(
        window_out, window_scratch, resident_out, resident_scratch);
    if (!dominance.empty()) {
      return "rank " + std::to_string(rank) + ": " + dominance;
    }
    for (const CollectiveBuffer& b : window_scratch.buffers) {
      if (b.kind == "ddp_bucket" && b.bytes > config.bucket_bytes) {
        return "bucket exceeds ddp_bucket_bytes";
      }
      if (b.free_ts >= 0 && b.free_ts <= b.alloc_ts) {
        return "window closes at or before it opens (" + b.kind + ")";
      }
    }
    if (max_live_of_kind(window_out, window_scratch, "ddp_bucket") >
        config.bucket_count) {
      return "more than ddp_bucket_count buckets live";
    }
    if (max_live_of_kind(window_out, window_scratch, "zero3_allgather") > 1) {
      return "overlapping ZeRO-3 gathers";
    }

    for (const std::string& backend : alloc::backend_names()) {
      SimulationOptions options;
      options.backend = backend;
      const MemorySimulator simulator;
      const auto window_result = simulator.replay(window_out, options);
      const auto resident_result = simulator.replay(resident_out, options);
      if (window_result.peak_allocated > resident_result.peak_allocated) {
        return "rank " + std::to_string(rank) + ", " + backend +
               ": window tensor-level peak " +
               std::to_string(window_result.peak_allocated) + " > resident " +
               std::to_string(resident_result.peak_allocated);
      }
    }
  }
  return "";
}

/// Greedy block-dropping shrinker: remove any block whose absence keeps the
/// failure alive, until a fixed point. Mirrors alloc_parity_test's
/// shrink-to-reproducer debugging contract.
std::vector<MemoryBlock> shrink_failing_blocks(
    std::vector<MemoryBlock> blocks,
    const std::vector<ComponentProfile>& profiles, const FuzzConfig& config) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      std::vector<MemoryBlock> candidate = blocks;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (!check_fuzz_invariants(candidate, profiles, config).empty()) {
        blocks = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return blocks;
}

std::string dump_blocks(const std::vector<MemoryBlock>& blocks) {
  std::ostringstream out;
  for (const MemoryBlock& b : blocks) {
    out << "  block(" << b.id << ", " << b.size << ", " << b.alloc_ts << ", "
        << b.free_ts << ", \"" << b.component << "\", phase "
        << static_cast<int>(b.phase) << ")\n";
  }
  return out.str();
}

TEST(CommOverlapFuzz, RandomConfigsHoldInvariantsOnEveryBackend) {
  util::Rng rng(0xC0FFEE);
  for (int iteration = 0; iteration < 40; ++iteration) {
    const auto profiles = random_profiles(rng);
    const auto blocks = random_model_blocks(rng, profiles);
    const FuzzConfig config = random_config(rng, profiles.size());
    const std::string violation =
        check_fuzz_invariants(blocks, profiles, config);
    if (!violation.empty()) {
      const auto reproducer = shrink_failing_blocks(blocks, profiles, config);
      FAIL() << "iteration " << iteration << ": " << violation
             << "\nconfig: d=" << config.d << " t=" << config.t
             << " zero=" << static_cast<int>(config.zero)
             << " bucket_bytes=" << config.bucket_bytes
             << " bucket_count=" << config.bucket_count
             << " ranks=" << config.ranks << "\nshrunken reproducer ("
             << reproducer.size() << " blocks):\n"
             << dump_blocks(reproducer);
    }
  }
}

TEST(CommOverlapFuzz, RandomConfigsMatchTheSortBasedReference) {
  // The invariant campaign's seeded draws, every rank in window and
  // resident mode, with and without materialized blocks.
  util::Rng rng(0xC0FFEE);
  for (int iteration = 0; iteration < 40; ++iteration) {
    const auto profiles = random_profiles(rng);
    const OrchestratedSequence base =
        sequence_from_blocks(random_model_blocks(rng, profiles));
    const FuzzConfig config = random_config(rng, profiles.size());
    const SequenceTransformer transformer(base, profiles);
    RankTransformOptions options = overlap_options(
        config.d, config.t, config.zero, config.bucket_bytes,
        config.bucket_count);
    for (std::size_t rank = 0; rank < config.ranks; ++rank) {
      for (const bool overlap : {true, false}) {
        for (const bool materialize : {true, false}) {
          options.comm_overlap = overlap;
          options.materialize_blocks = materialize;
          RankScratch scratch;
          EXPECT_EQ(core::reference::difference_from_reference(
                        transformer, profiles, options, config.chunks,
                        config.ranks, rank, scratch),
                    "")
              << "iteration " << iteration << ", rank " << rank
              << ", overlap " << overlap << ", materialize " << materialize;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xmem
