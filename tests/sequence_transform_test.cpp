// Rank-sequence transform layer property tests (ctest label: replay).
//
//   * stage slices concatenate back to the original sequence (pure PP is a
//     partition of the block set, byte-exact);
//   * sharded per-rank sequences conserve transient-allocated bytes across
//     ranks within the documented replication slack (every block lands in
//     [original/t, original] per TP rank, [original/d, original] per DP
//     rank for the phases its ZeRO stage shards);
//   * transforms are deterministic — two transformers, two scratches, one
//     event stream;
//   * collective-communication buffers (DDP buckets, TP all-reduce staging,
//     ZeRO-3 all-gather) are injected as ordinary resident events with
//     fresh block ids, and only for the dimensions that need them;
//   * every transform equals the sort-based reference
//     (rank_sequence_reference.h) event for event, injected buffers that
//     tie on ts with base events included;
//   * a real profiled sequence slices into per-rank sequences the simulator
//     replays to nonzero fragmentation-aware peaks bounded by the
//     single-device replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "core/profile_session.h"
#include "core/sequence_transform.h"
#include "core/simulator.h"
#include "rank_sequence_reference.h"

namespace xmem {
namespace {

using core::CollectiveBuffer;
using core::ComponentProfile;
using core::MemoryBlock;
using core::OrchestratedEvent;
using core::OrchestratedSequence;
using core::Phase;
using core::PipelineStage;
using core::RankScratch;
using core::RankTransformOptions;
using core::SequenceTransformer;
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

/// A hand-built orchestrated sequence with every phase the transforms key
/// on: params, batch data (unattributed component), activations, a forward
/// workspace, gradients, and optimizer state.
OrchestratedSequence base_sequence() {
  OrchestratedSequence sequence;
  sequence.blocks = {
      block(1, 1000, 10, -1, "Embedding.0", Phase::kModelLoad),
      block(2, 2000, 11, -1, "Block.1", Phase::kModelLoad),
      block(3, 2000, 12, -1, "Block.2", Phase::kModelLoad),
      block(4, 64, 13, -1, "Norm.3", Phase::kModelLoad),
      block(5, 500, 20, 90, "loader.batch", Phase::kDataLoader),
      block(6, 800, 30, 80, "Block.1", Phase::kForward),
      block(7, 800, 35, 85, "Block.2", Phase::kForward),
      block(8, 100, 38, 86, "Norm.3", Phase::kForward),
      block(9, 400, 36, 37, "Block.2", Phase::kForward),
      block(10, 2000, 50, 95, "Block.2", Phase::kBackward),
      block(11, 2000, 55, 96, "Block.1", Phase::kBackward),
      block(12, 4000, 70, -1, "Block.1", Phase::kOptimizerStep),
      block(13, 4000, 72, -1, "Block.2", Phase::kOptimizerStep),
  };
  for (const MemoryBlock& b : sequence.blocks) {
    sequence.events.push_back(OrchestratedEvent{b.alloc_ts, b.id, b.size, true});
    if (!b.persistent()) {
      sequence.events.push_back(
          OrchestratedEvent{b.free_ts, b.id, b.size, false});
    }
  }
  return sequence;
}

/// The component order the planner would pack stages over (forward order;
/// the byte payload is irrelevant to the transform, only names and order).
std::vector<ComponentProfile> base_profiles() {
  return {
      ComponentProfile{"Embedding.0", 1000, 0, 0, 0},
      ComponentProfile{"Block.1", 2000, 4000, 800, 0},
      ComponentProfile{"Block.2", 2000, 4000, 800, 400},
      ComponentProfile{"Norm.3", 64, 0, 100, 0},
  };
}

PipelineStage chunk(std::size_t first, std::size_t last) {
  PipelineStage stage;
  stage.first_component = first;
  stage.last_component = last;
  return stage;
}

std::int64_t total_alloc_bytes(const OrchestratedSequence& sequence) {
  std::int64_t total = 0;
  for (const OrchestratedEvent& event : sequence.events) {
    if (event.is_alloc) total += event.bytes;
  }
  return total;
}

RankTransformOptions identity_options() {
  RankTransformOptions options;
  options.micro_batches = 1;
  options.inject_collectives = false;
  return options;
}

// ---------- pipeline slicing ----------

TEST(SequenceTransform, SlicesConcatenateBackToTheOriginalSequence) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);
  const std::vector<PipelineStage> chunks = {chunk(0, 0), chunk(1, 1),
                                             chunk(2, 3)};

  std::map<std::int64_t, std::int64_t> bytes_by_id;
  std::size_t total_events = 0;
  for (std::size_t rank = 0; rank < 3; ++rank) {
    RankScratch scratch;
    const OrchestratedSequence& slice = transformer.rank_sequence(
        identity_options(), chunks, 3, rank, scratch);
    for (const MemoryBlock& b : slice.blocks) {
      EXPECT_TRUE(bytes_by_id.emplace(b.id, b.size).second)
          << "block " << b.id << " appears on two ranks";
    }
    total_events += slice.events.size();
  }
  ASSERT_EQ(bytes_by_id.size(), base.blocks.size());
  for (const MemoryBlock& b : base.blocks) {
    EXPECT_EQ(bytes_by_id.at(b.id), b.size) << "block " << b.id;
  }
  EXPECT_EQ(total_events, base.events.size());
}

TEST(SequenceTransform, UnattributedBlocksRideOnChunkZero) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);
  const std::vector<PipelineStage> chunks = {chunk(0, 1), chunk(2, 3)};

  RankScratch scratch;
  const OrchestratedSequence& rank0 =
      transformer.rank_sequence(identity_options(), chunks, 2, 0, scratch);
  const auto has_block = [](const OrchestratedSequence& s, std::int64_t id) {
    return std::any_of(s.blocks.begin(), s.blocks.end(),
                       [id](const MemoryBlock& b) { return b.id == id; });
  };
  EXPECT_TRUE(has_block(rank0, 5));  // the dataloader batch block

  RankScratch scratch1;
  const OrchestratedSequence& rank1 =
      transformer.rank_sequence(identity_options(), chunks, 2, 1, scratch1);
  EXPECT_FALSE(has_block(rank1, 5));
}

// ---------- byte conservation under sharding ----------

TEST(SequenceTransform, TensorParallelConservesBytesWithinReplicationSlack) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  RankTransformOptions options = identity_options();
  options.tensor_parallel = 4;
  options.tensor.activation_replication_pct = 25;

  RankScratch scratch;
  const OrchestratedSequence& sharded =
      transformer.rank_sequence(options, {}, 1, 0, scratch);
  ASSERT_EQ(sharded.blocks.size(), base.blocks.size());

  const std::int64_t original = total_alloc_bytes(base);
  const std::int64_t per_rank = total_alloc_bytes(sharded);
  // Documented slack: replicated components (Norm/Embedding), the
  // activation-replication share, batch data, and ceil rounding replicate;
  // nothing inflates a block beyond its original bytes and nothing shrinks
  // it below a full 1/t shard.
  EXPECT_LE(per_rank, original);
  EXPECT_GE(per_rank, (original + 3) / 4);

  std::map<std::int64_t, std::int64_t> bytes_by_id;
  for (const MemoryBlock& b : sharded.blocks) bytes_by_id[b.id] = b.size;
  EXPECT_EQ(bytes_by_id.at(1), 1000);  // Embedding.* replicates
  EXPECT_EQ(bytes_by_id.at(4), 64);    // Norm.* replicates
  EXPECT_EQ(bytes_by_id.at(2), 500);   // params ceil-divide
  EXPECT_EQ(bytes_by_id.at(12), 1000); // optimizer state ceil-divides
  EXPECT_EQ(bytes_by_id.at(11), 500);  // gradients ceil-divide
  EXPECT_EQ(bytes_by_id.at(5), 500);   // every TP rank sees the whole batch
  // Activations: 25% of 800 replicates, the rest divides: 200 + 150.
  EXPECT_EQ(bytes_by_id.at(6), 350);
}

TEST(SequenceTransform, DataParallelShardsThePhasesItsZeroStageCovers) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  const auto bytes_of = [&](ZeroStage zero, std::int64_t id) {
    RankTransformOptions options = identity_options();
    options.data_parallel = 4;
    options.zero = zero;
    RankScratch scratch;
    const OrchestratedSequence& out =
        transformer.rank_sequence(options, {}, 1, 0, scratch);
    for (const MemoryBlock& b : out.blocks) {
      if (b.id == id) return b.size;
    }
    return std::int64_t{-1};
  };

  // Batch-sharded phases shard at every stage; persistent classes only
  // once their ZeRO stage covers them.
  EXPECT_EQ(bytes_of(ZeroStage::kNone, 6), 200);   // activations / d
  EXPECT_EQ(bytes_of(ZeroStage::kNone, 5), 125);   // batch / d
  EXPECT_EQ(bytes_of(ZeroStage::kNone, 12), 4000); // optimizer replicated
  EXPECT_EQ(bytes_of(ZeroStage::kNone, 11), 2000); // gradients replicated
  EXPECT_EQ(bytes_of(ZeroStage::kNone, 2), 2000);  // params replicated

  EXPECT_EQ(bytes_of(ZeroStage::kOptimizer, 12), 1000);
  EXPECT_EQ(bytes_of(ZeroStage::kOptimizer, 11), 2000);

  EXPECT_EQ(bytes_of(ZeroStage::kOptimizerGradient, 11), 500);
  EXPECT_EQ(bytes_of(ZeroStage::kOptimizerGradient, 2), 2000);

  EXPECT_EQ(bytes_of(ZeroStage::kFull, 2), 500);
  EXPECT_EQ(bytes_of(ZeroStage::kFull, 12), 1000);
}

TEST(SequenceTransform, MicroBatchScalingFollowsInFlightDepth) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);
  const std::vector<PipelineStage> chunks = {chunk(0, 1), chunk(2, 3)};

  RankTransformOptions options = identity_options();
  options.micro_batches = 4;

  RankScratch scratch;
  const OrchestratedSequence& rank0 =
      transformer.rank_sequence(options, chunks, 2, 0, scratch);
  // Chunk 0 of 2 holds min(2, 4) = 2 in-flight micro-batches: 800 * 2/4.
  for (const MemoryBlock& b : rank0.blocks) {
    if (b.id == 6) {
      EXPECT_EQ(b.size, 400);
    }
    if (b.id == 2) {
      EXPECT_EQ(b.size, 2000);  // params don't micro-batch
    }
  }
  RankScratch scratch1;
  const OrchestratedSequence& rank1 =
      transformer.rank_sequence(options, chunks, 2, 1, scratch1);
  // Chunk 1 (the last stage) holds one in-flight copy: ceil(800 / 4).
  for (const MemoryBlock& b : rank1.blocks) {
    if (b.id == 7) {
      EXPECT_EQ(b.size, 200);
    }
    if (b.id == 8) {
      EXPECT_EQ(b.size, 25);
    }
  }
}

// ---------- determinism ----------

TEST(SequenceTransform, TransformsAreDeterministic) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const std::vector<PipelineStage> chunks = {chunk(0, 1), chunk(2, 3)};

  RankTransformOptions options;
  options.data_parallel = 2;
  options.tensor_parallel = 2;
  options.micro_batches = 4;
  options.zero = ZeroStage::kOptimizer;

  const SequenceTransformer a(base, profiles);
  const SequenceTransformer b(base, profiles);
  for (std::size_t rank = 0; rank < 2; ++rank) {
    RankScratch scratch_a, scratch_b;
    const OrchestratedSequence& out_a =
        a.rank_sequence(options, chunks, 2, rank, scratch_a);
    const OrchestratedSequence& out_b =
        b.rank_sequence(options, chunks, 2, rank, scratch_b);
    ASSERT_EQ(out_a.events.size(), out_b.events.size());
    for (std::size_t i = 0; i < out_a.events.size(); ++i) {
      EXPECT_EQ(out_a.events[i].ts, out_b.events[i].ts);
      EXPECT_EQ(out_a.events[i].block_id, out_b.events[i].block_id);
      EXPECT_EQ(out_a.events[i].bytes, out_b.events[i].bytes);
      EXPECT_EQ(out_a.events[i].is_alloc, out_b.events[i].is_alloc);
    }
  }
}

TEST(SequenceTransform, ScratchReuseAcrossCandidatesIsCleanEachTime) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  RankScratch reused;
  RankTransformOptions wide = identity_options();
  wide.tensor_parallel = 2;
  wide.inject_collectives = true;
  transformer.rank_sequence(wide, {}, 1, 0, reused);
  const std::size_t wide_events = reused.sequence.events.size();

  // A second, narrower candidate through the same scratch must not inherit
  // the first one's events or buffers.
  RankScratch fresh;
  const OrchestratedSequence& from_reused =
      transformer.rank_sequence(identity_options(), {}, 1, 0, reused);
  const OrchestratedSequence& from_fresh =
      transformer.rank_sequence(identity_options(), {}, 1, 0, fresh);
  EXPECT_LT(from_reused.events.size(), wide_events);
  ASSERT_EQ(from_reused.events.size(), from_fresh.events.size());
  for (std::size_t i = 0; i < from_fresh.events.size(); ++i) {
    EXPECT_EQ(from_reused.events[i].block_id, from_fresh.events[i].block_id);
    EXPECT_EQ(from_reused.events[i].bytes, from_fresh.events[i].bytes);
  }
  EXPECT_TRUE(reused.buffers.empty());
}

// ---------- collective-communication buffers ----------

TEST(SequenceTransform, CollectiveBuffersInjectedPerDimension) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  const auto buffers_for = [&](RankTransformOptions options) {
    options.inject_collectives = true;
    RankScratch scratch;
    transformer.rank_sequence(options, {}, 1, 0, scratch);
    return scratch.buffers;
  };

  RankTransformOptions single = identity_options();
  EXPECT_TRUE(buffers_for(single).empty());

  RankTransformOptions dp = identity_options();
  dp.data_parallel = 2;
  dp.ddp_bucket_count = 3;
  dp.ddp_bucket_bytes = 1 << 20;
  const auto dp_buffers = buffers_for(dp);
  ASSERT_EQ(dp_buffers.size(), 3u);
  for (const CollectiveBuffer& buffer : dp_buffers) {
    EXPECT_EQ(buffer.kind, "ddp_bucket");
    EXPECT_EQ(buffer.bytes, 1 << 20);
    EXPECT_EQ(buffer.alloc_ts, 50);  // the first backward block
    EXPECT_GT(buffer.block_id, 13);  // fresh ids beyond the base sequence
  }

  RankTransformOptions tp = identity_options();
  tp.tensor_parallel = 2;
  const auto tp_buffers = buffers_for(tp);
  ASSERT_EQ(tp_buffers.size(), 1u);
  EXPECT_EQ(tp_buffers.front().kind, "tp_allreduce");
  // Largest sharded forward block: 25% of 800 replicated + 600/2.
  EXPECT_EQ(tp_buffers.front().bytes, 500);
  EXPECT_EQ(tp_buffers.front().alloc_ts, 30);

  RankTransformOptions zero3 = identity_options();
  zero3.data_parallel = 2;
  zero3.zero = ZeroStage::kFull;
  const auto zero3_buffers = buffers_for(zero3);
  ASSERT_EQ(zero3_buffers.size(), 3u);  // 2 default buckets + all-gather
  const auto gather = std::find_if(
      zero3_buffers.begin(), zero3_buffers.end(),
      [](const CollectiveBuffer& b) { return b.kind == "zero3_allgather"; });
  ASSERT_NE(gather, zero3_buffers.end());
  EXPECT_EQ(gather->bytes, 2000);  // the largest un-DP-sharded parameter
}

TEST(SequenceTransform, EventsStaySortedAndBalanced) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  RankTransformOptions options;
  options.data_parallel = 2;
  options.tensor_parallel = 2;
  options.micro_batches = 4;
  RankScratch scratch;
  const OrchestratedSequence& out =
      transformer.rank_sequence(options, {}, 1, 0, scratch);

  std::size_t allocs = 0, frees = 0;
  for (std::size_t i = 1; i < out.events.size(); ++i) {
    const OrchestratedEvent& prev = out.events[i - 1];
    const OrchestratedEvent& next = out.events[i];
    EXPECT_LE(prev.ts, next.ts);
    if (prev.ts == next.ts) {
      // Frees sort before allocs so same-instant reuse cannot manufacture
      // phantom peaks — the Orchestrator's contract, preserved here.
      EXPECT_LE(static_cast<int>(!prev.is_alloc ? 0 : 1),
                static_cast<int>(!next.is_alloc ? 0 : 1));
    }
  }
  std::set<std::int64_t> alloc_ids;
  for (const OrchestratedEvent& event : out.events) {
    if (event.is_alloc) {
      ++allocs;
      EXPECT_TRUE(alloc_ids.insert(event.block_id).second);
    } else {
      ++frees;
      EXPECT_TRUE(alloc_ids.count(event.block_id) > 0);
    }
  }
  EXPECT_GT(allocs, frees);  // persistent blocks + injected buffers
}

// ---------- events-only hot path ----------

TEST(SequenceTransform, EventsOnlyModeMatchesMaterializedEvents) {
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);

  RankTransformOptions options;
  options.data_parallel = 2;
  options.tensor_parallel = 2;
  options.micro_batches = 4;
  RankScratch with_blocks, events_only;
  options.materialize_blocks = true;
  const OrchestratedSequence& a =
      transformer.rank_sequence(options, {}, 1, 0, with_blocks);
  const std::size_t a_events = a.events.size();
  const std::size_t a_blocks = a.blocks.size();
  options.materialize_blocks = false;
  const OrchestratedSequence& b =
      transformer.rank_sequence(options, {}, 1, 0, events_only);
  EXPECT_GT(a_blocks, 0u);
  EXPECT_TRUE(b.blocks.empty());
  ASSERT_EQ(a_events, b.events.size());
  for (std::size_t i = 0; i < b.events.size(); ++i) {
    EXPECT_EQ(a.events[i].block_id, b.events[i].block_id);
    EXPECT_EQ(a.events[i].bytes, b.events[i].bytes);
  }
}

// ---------- sequence fingerprints ----------

TEST(SequenceFingerprint, EqualFingerprintsImplyEqualEventStreams) {
  // The dedup property the refine pass leans on, checked over seeded random
  // transforms: whenever two transformed sequences fingerprint alike, their
  // event vectors are byte-equal (and the planner's collision guard — the
  // full compare — would accept the shared verdict). The converse holds on
  // this corpus too: distinct event streams never collide here, so the
  // fingerprint actually discriminates instead of hashing everything alike.
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);
  const std::vector<std::vector<PipelineStage>> partitions = {
      {chunk(0, 3)},
      {chunk(0, 1), chunk(2, 3)},
      {chunk(0, 0), chunk(1, 1), chunk(2, 3)},
  };

  std::mt19937 rng(20250807);
  std::map<std::uint64_t, std::vector<OrchestratedEvent>> by_fingerprint;
  std::set<std::uint64_t> fingerprints;
  std::size_t repeats = 0;
  for (int trial = 0; trial < 200; ++trial) {
    RankTransformOptions options;
    options.data_parallel = 1 << (rng() % 3);
    options.tensor_parallel = 1 << (rng() % 3);
    options.micro_batches = 1 + static_cast<int>(rng() % 4);
    options.zero = static_cast<ZeroStage>(rng() % 4);
    options.inject_collectives = (rng() % 2) == 0;
    const auto& chunks = partitions[rng() % partitions.size()];
    const std::size_t rank = rng() % chunks.size();

    RankScratch scratch;
    const OrchestratedSequence& out = transformer.rank_sequence(
        options, chunks, chunks.size(), rank, scratch);
    const std::uint64_t fingerprint = core::sequence_fingerprint(out);
    EXPECT_EQ(fingerprint, core::sequence_fingerprint(out))  // stable
        << "trial " << trial;
    const auto [it, fresh] = by_fingerprint.emplace(fingerprint, out.events);
    if (!fresh) {
      ++repeats;
      EXPECT_EQ(it->second, out.events)
          << "trial " << trial << ": fingerprint collision across distinct "
          << "event streams";
    }
    fingerprints.insert(fingerprint);
  }
  // The random corpus must actually exercise both branches.
  EXPECT_GT(repeats, 0u);
  EXPECT_GT(fingerprints.size(), 10u);
}

TEST(SequenceFingerprint, SensitiveToEveryEventField) {
  OrchestratedSequence sequence;
  sequence.events = {OrchestratedEvent{10, 1, 512, true},
                     OrchestratedEvent{20, 1, 512, false}};
  const std::uint64_t original = core::sequence_fingerprint(sequence);

  OrchestratedSequence mutated = sequence;
  mutated.events[0].ts = 11;
  EXPECT_NE(core::sequence_fingerprint(mutated), original);
  mutated = sequence;
  mutated.events[0].block_id = 2;
  EXPECT_NE(core::sequence_fingerprint(mutated), original);
  mutated = sequence;
  mutated.events[0].bytes = 513;
  EXPECT_NE(core::sequence_fingerprint(mutated), original);
  mutated = sequence;
  mutated.events[1].is_alloc = true;
  EXPECT_NE(core::sequence_fingerprint(mutated), original);
  mutated = sequence;
  mutated.events.pop_back();
  EXPECT_NE(core::sequence_fingerprint(mutated), original);
}

// ---------- the sort-based reference ----------

TEST(SequenceTransform, MatchesTheSortBasedReference) {
  // The fingerprint corpus's seeded draws, each in resident and window mode
  // with and without materialized blocks. One library scratch serves every
  // draw, so a candidate must not inherit its predecessor's state either.
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);
  const std::vector<std::vector<PipelineStage>> partitions = {
      {chunk(0, 3)},
      {chunk(0, 1), chunk(2, 3)},
      {chunk(0, 0), chunk(1, 1), chunk(2, 3)},
  };

  std::mt19937 rng(20250807);
  RankScratch scratch;
  for (int trial = 0; trial < 200; ++trial) {
    RankTransformOptions options;
    options.data_parallel = 1 << (rng() % 3);
    options.tensor_parallel = 1 << (rng() % 3);
    options.micro_batches = 1 + static_cast<int>(rng() % 4);
    options.zero = static_cast<ZeroStage>(rng() % 4);
    options.inject_collectives = (rng() % 2) == 0;
    const auto& chunks = partitions[rng() % partitions.size()];
    const std::size_t rank = rng() % chunks.size();
    for (const bool overlap : {false, true}) {
      for (const bool materialize : {true, false}) {
        options.comm_overlap = overlap;
        options.materialize_blocks = materialize;
        EXPECT_EQ(core::reference::difference_from_reference(
                      transformer, profiles, options, chunks, chunks.size(),
                      rank, scratch),
                  "")
            << "trial " << trial << ", overlap " << overlap
            << ", materialize " << materialize;
      }
    }
  }
}

TEST(SequenceTransform, InjectedEventsTyingWithBaseEventsMergeLikeASort) {
  // Resident buffers open at a base block's alloc ts (first backward, first
  // forward, first block); window buffers also close at a base block's free
  // ts (a TP span's last forward free, a ZeRO-3 gather's window end) or at
  // the optimizer step's first alloc. On equal ts the merge must put frees
  // first and break the rest by block id, like the sort.
  const OrchestratedSequence base = base_sequence();
  const auto profiles = base_profiles();
  const SequenceTransformer transformer(base, profiles);
  RankTransformOptions options;
  options.data_parallel = 2;
  options.tensor_parallel = 2;
  options.zero = ZeroStage::kFull;
  options.ddp_bucket_bytes = 1000;
  std::size_t alloc_ties = 0;
  std::size_t free_ties = 0;
  for (const bool overlap : {false, true}) {
    options.comm_overlap = overlap;
    RankScratch scratch;
    EXPECT_EQ(core::reference::difference_from_reference(
                  transformer, profiles, options, {}, 1, 0, scratch),
              "")
        << "overlap " << overlap;
    std::set<std::int64_t> injected;
    for (const CollectiveBuffer& b : scratch.buffers) {
      injected.insert(b.block_id);
    }
    for (const OrchestratedEvent& event : scratch.sequence.events) {
      if (injected.count(event.block_id) == 0) continue;
      for (const MemoryBlock& b : base.blocks) {
        if (b.alloc_ts == event.ts) ++alloc_ties;
        if (b.free_ts == event.ts) ++free_ties;
      }
    }
  }
  EXPECT_GT(alloc_ties, 0u);
  EXPECT_GT(free_ties, 0u);
}

// ---------- real profiled sequence through the allocator tower ----------

TEST(SequenceTransform, RealProfileSlicesReplayToBoundedNonzeroPeaks) {
  core::ProfileKey key;
  key.model_name = "distilgpt2";
  key.batch_size = 2;
  key.optimizer = fw::OptimizerKind::kAdamW;
  key.profile_iterations = 2;
  const core::ProfileArtifacts artifacts = core::run_profile_pipeline(key);
  const OrchestratedSequence& sequence = artifacts.orchestration.sequence;
  const std::vector<ComponentProfile> profiles =
      core::per_component_profile(artifacts.analysis.timeline);
  ASSERT_GT(profiles.size(), 3u);

  core::DistributedPlanner planner;
  core::HybridOptions hybrid;
  hybrid.pipeline_stages = 3;
  hybrid.micro_batches = 1;
  const core::HybridPlan plan = planner.plan_hybrid(profiles, hybrid);
  ASSERT_EQ(plan.stages.size(), 3u);

  const SequenceTransformer transformer(sequence, profiles);
  core::MemorySimulator simulator;
  const core::SimulationResult full = simulator.replay(sequence);

  RankTransformOptions options = identity_options();
  std::int64_t sliced_bytes = 0;
  core::ReplayScratch replay_scratch;
  for (std::size_t rank = 0; rank < 3; ++rank) {
    RankScratch scratch;
    const OrchestratedSequence& slice =
        transformer.rank_sequence(options, plan.stages, 3, rank, scratch);
    sliced_bytes += total_alloc_bytes(slice);
    const core::SimulationResult replay =
        simulator.replay(slice, {}, &replay_scratch);
    EXPECT_GT(replay.peak_device, 0);
    EXPECT_LE(replay.peak_device, full.peak_device) << "rank " << rank;
  }
  // Pure slicing (no sharding, no buffers) partitions the block set, so the
  // per-rank byte totals conserve exactly.
  EXPECT_EQ(sliced_bytes, total_alloc_bytes(sequence));
}

}  // namespace
}  // namespace xmem
