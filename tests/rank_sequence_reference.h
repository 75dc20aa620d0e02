// Reference rank-sequence transform: the sort-based shape the library's
// transform (core/sequence_transform.cpp) replaced. It builds each kept
// block's alloc/free events and the injected collective events, then sorts
// the whole vector with orchestrated_event_order. Tests hold the library's
// sort-free transform to this one event for event. Test-only; nothing in
// the library calls it. difference() compares two transform outputs.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/sequence_transform.h"

namespace xmem::core::reference {

/// What SequenceTransformer::rank_sequence returns for a transformer built
/// on (base, profiles). Builds into `scratch`, like the library.
inline const OrchestratedSequence& rank_sequence(
    const OrchestratedSequence& base,
    const std::vector<ComponentProfile>& profiles,
    const RankTransformOptions& options,
    const std::vector<PipelineStage>& chunks, std::size_t pipeline_ranks,
    std::size_t rank, RankScratch& scratch) {
  // The transformer's constructor: component index per block and the first
  // id free for injected buffers.
  std::vector<std::string> component_names;
  std::map<std::string, std::int32_t> index_of;
  for (const ComponentProfile& profile : profiles) {
    index_of.emplace(profile.component,
                     static_cast<std::int32_t>(component_names.size()));
    component_names.push_back(profile.component);
  }
  std::vector<std::int32_t> block_component;
  std::int64_t next_buffer_id = 0;
  for (const MemoryBlock& block : base.blocks) {
    const auto it = index_of.find(block.component);
    block_component.push_back(it == index_of.end() ? -1 : it->second);
    next_buffer_id = std::max(next_buffer_id, block.id + 1);
  }
  OrchestratedSequence& out = scratch.sequence;
  out.blocks.clear();
  out.events.clear();
  scratch.buffers.clear();
  out.events.reserve(base.events.size());
  if (options.materialize_blocks) out.blocks.reserve(base.blocks.size());

  const std::int64_t t = std::max(1, options.tensor_parallel);
  const std::int64_t d = std::max(1, options.data_parallel);
  const int micro_batches = std::max(1, options.micro_batches);

  // Component -> chunk map from the contiguous partition; everything in one
  // chunk when no partition was supplied.
  const std::size_t total_chunks = std::max<std::size_t>(chunks.size(), 1);
  const std::size_t ranks =
      std::min(std::max<std::size_t>(pipeline_ranks, 1), total_chunks);
  std::vector<std::size_t>& chunk_of = scratch.chunk_of;
  chunk_of.assign(component_names.size(), 0);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (std::size_t i = chunks[c].first_component;
         i <= chunks[c].last_component && i < chunk_of.size(); ++i) {
      chunk_of[i] = c;
    }
  }

  // Per-component TP replication flag, resolved once per call instead of
  // per block (the substring scan is the only string work in the loop).
  std::vector<char>& replicated = scratch.replicated;
  replicated.assign(component_names.size(), 0);
  if (t > 1) {
    for (std::size_t i = 0; i < component_names.size(); ++i) {
      for (const std::string& marker : options.tensor.replicated_substrings) {
        if (component_names[i].find(marker) != std::string::npos) {
          replicated[i] = 1;
          break;
        }
      }
    }
  }
  const int replication_pct =
      std::clamp(options.tensor.activation_replication_pct, 0, 100);

  // Collective-buffer anchors, discovered while slicing.
  util::TimeUs first_ts = -1;
  util::TimeUs first_forward_ts = -1;
  util::TimeUs first_backward_ts = -1;
  std::int64_t max_forward_bytes = 0;   ///< post-shard (all-reduce payload)
  std::int64_t max_param_gather = 0;    ///< TP-sharded, un-DP-sharded params

  // Overlap-window anchors (window mode only). Per-component vectors carry
  // one trailing slot for unattributed blocks.
  const bool windows = options.inject_collectives && options.comm_overlap;
  const std::size_t comp_slots = component_names.size() + 1;
  util::TimeUs optimizer_start_ts = -1;
  util::TimeUs first_sync_ts = -1;
  util::TimeUs last_sync_end = -1;
  bool sync_persistent = false;
  std::int64_t max_sync_bytes = 0;  ///< largest actually-synchronized block
  if (windows) {
    scratch.grad_marks.clear();
    scratch.comp_param.assign(comp_slots, 0);
    scratch.fwd_start.assign(comp_slots, -1);
    scratch.fwd_end.assign(comp_slots, -1);
    scratch.bwd_start.assign(comp_slots, -1);
    scratch.bwd_end.assign(comp_slots, -1);
  }

  for (std::size_t i = 0; i < base.blocks.size(); ++i) {
    const MemoryBlock& block = base.blocks[i];
    const std::int32_t component = block_component[i];
    const std::size_t chunk = component < 0 ? 0 : chunk_of[component];
    if (chunk % ranks != rank) continue;

    // 1) Tensor parallelism.
    std::int64_t bytes = block.size;
    bool tp_synced = false;  ///< this block's output is all-reduced (t > 1)
    if (t > 1 && (component < 0 || !replicated[component])) {
      switch (block.phase) {
        case Phase::kForward: {
          const std::int64_t replicated_bytes = bytes * replication_pct / 100;
          bytes = replicated_bytes + ceil_div(bytes - replicated_bytes, t);
          tp_synced = true;
          break;
        }
        case Phase::kModelLoad:
        case Phase::kBackward:
        case Phase::kOptimizerStep:
          bytes = ceil_div(bytes, t);
          break;
        case Phase::kDataLoader:
        case Phase::kOther:
          break;  // every TP rank sees the whole batch
      }
    }
    if (block.phase == Phase::kModelLoad) {
      max_param_gather = std::max(max_param_gather, bytes);
      if (windows) {
        const std::size_t slot = component < 0
                                     ? component_names.size()
                                     : static_cast<std::size_t>(component);
        scratch.comp_param[slot] = std::max(scratch.comp_param[slot], bytes);
      }
    }

    // 2) Data parallelism (batch shard + ZeRO state shard).
    if (d > 1) {
      switch (block.phase) {
        case Phase::kForward:
        case Phase::kDataLoader:
          bytes = ceil_div(bytes, d);
          break;
        case Phase::kModelLoad:
          if (options.zero >= ZeroStage::kFull) bytes = ceil_div(bytes, d);
          break;
        case Phase::kBackward:
          if (options.zero >= ZeroStage::kOptimizerGradient) {
            bytes = ceil_div(bytes, d);
          }
          break;
        case Phase::kOptimizerStep:
          if (options.zero >= ZeroStage::kOptimizer) bytes = ceil_div(bytes, d);
          break;
        case Phase::kOther:
          break;
      }
    }

    // 3) 1F1B in-flight scaling: this chunk holds min(chunks - c, m)
    // micro-batch activation copies of 1/m each.
    if (block.phase == Phase::kForward && micro_batches > 1) {
      const std::int64_t in_flight = std::min<std::int64_t>(
          static_cast<std::int64_t>(total_chunks - chunk), micro_batches);
      bytes = ceil_div(bytes * in_flight, micro_batches);
    }
    if (block.phase == Phase::kForward) {
      max_forward_bytes = std::max(max_forward_bytes, bytes);
    }

    if (first_ts < 0 || block.alloc_ts < first_ts) first_ts = block.alloc_ts;
    if (block.phase == Phase::kForward &&
        (first_forward_ts < 0 || block.alloc_ts < first_forward_ts)) {
      first_forward_ts = block.alloc_ts;
    }
    if (block.phase == Phase::kBackward &&
        (first_backward_ts < 0 || block.alloc_ts < first_backward_ts)) {
      first_backward_ts = block.alloc_ts;
    }
    if (windows) {
      // Window anchors use the block's final (post-shard, post-scaling)
      // bytes, so every window stays bounded by its resident counterpart.
      const std::size_t slot = component < 0
                                   ? component_names.size()
                                   : static_cast<std::size_t>(component);
      const util::TimeUs end_ts =
          block.persistent() ? block.alloc_ts : block.free_ts;
      if (block.phase == Phase::kForward) {
        if (scratch.fwd_start[slot] < 0 ||
            block.alloc_ts < scratch.fwd_start[slot]) {
          scratch.fwd_start[slot] = block.alloc_ts;
        }
        scratch.fwd_end[slot] = std::max(scratch.fwd_end[slot], end_ts);
        if (tp_synced) {
          if (first_sync_ts < 0 || block.alloc_ts < first_sync_ts) {
            first_sync_ts = block.alloc_ts;
          }
          if (block.persistent()) sync_persistent = true;
          last_sync_end = std::max(last_sync_end, end_ts);
          max_sync_bytes = std::max(max_sync_bytes, bytes);
        }
      } else if (block.phase == Phase::kBackward) {
        if (scratch.bwd_start[slot] < 0 ||
            block.alloc_ts < scratch.bwd_start[slot]) {
          scratch.bwd_start[slot] = block.alloc_ts;
        }
        scratch.bwd_end[slot] = std::max(scratch.bwd_end[slot], end_ts);
        if (d > 1) scratch.grad_marks.emplace_back(block.alloc_ts, bytes);
      } else if (block.phase == Phase::kOptimizerStep) {
        if (optimizer_start_ts < 0 || block.alloc_ts < optimizer_start_ts) {
          optimizer_start_ts = block.alloc_ts;
        }
      }
    }

    out.events.push_back(
        OrchestratedEvent{block.alloc_ts, block.id, bytes, true});
    if (!block.persistent()) {
      out.events.push_back(
          OrchestratedEvent{block.free_ts, block.id, bytes, false});
    }
    if (options.materialize_blocks) {
      MemoryBlock sliced = block;
      sliced.size = bytes;
      out.blocks.push_back(std::move(sliced));
    }
  }

  // 4) Collective-communication buffers: resident events by default,
  // schedule-tied overlap windows (paired alloc/free) under comm_overlap.
  std::int64_t next_id = next_buffer_id;
  const auto inject = [&](const char* kind, std::int64_t bytes,
                          util::TimeUs ts, util::TimeUs free_ts) {
    if (bytes <= 0) return;
    if (ts < 0) ts = first_ts < 0 ? 0 : first_ts;
    scratch.buffers.push_back(
        CollectiveBuffer{kind, bytes, ts, free_ts, next_id});
    out.events.push_back(OrchestratedEvent{ts, next_id, bytes, true});
    if (free_ts >= 0) {
      out.events.push_back(OrchestratedEvent{free_ts, next_id, bytes, false});
    }
    if (options.materialize_blocks) {
      MemoryBlock block;
      block.id = next_id;
      block.size = bytes;
      block.alloc_ts = ts;
      block.free_ts = free_ts;
      block.component = std::string("__collective:") + kind;
      block.phase = Phase::kOther;
      out.blocks.push_back(std::move(block));
    }
    ++next_id;
  };

  if (options.inject_collectives && !options.comm_overlap) {
    if (d > 1) {
      for (int b = 0; b < options.ddp_bucket_count; ++b) {
        inject("ddp_bucket", options.ddp_bucket_bytes, first_backward_ts, -1);
      }
      if (options.zero >= ZeroStage::kFull) {
        inject("zero3_allgather", max_param_gather, first_ts, -1);
      }
    }
    if (t > 1) {
      inject("tp_allreduce", max_forward_bytes, first_forward_ts, -1);
    }
  } else if (windows) {
    // DDP buckets: the rank's gradient payload, in completion order, cut
    // into buckets of at most ddp_bucket_bytes — one bucket per distinct
    // completion timestamp (an oversized gradient gets one capped bucket,
    // the PyTorch rule; the cap is what keeps every bucket bounded by its
    // resident counterpart). Bucket b drains when bucket b + depth is born
    // — its all-reduce must have completed to admit a new one — and the
    // trailing buckets drain at the optimizer step. Births are strictly
    // increasing and frees sort before allocs on timestamp ties, so at
    // most `depth` buckets are ever live.
    if (d > 1 && options.ddp_bucket_count > 0 &&
        options.ddp_bucket_bytes > 0 && !scratch.grad_marks.empty()) {
      auto& marks = scratch.grad_marks;
      std::sort(marks.begin(), marks.end());
      std::size_t merged = 0;
      for (std::size_t i = 0; i < marks.size(); ++i) {
        if (merged > 0 && marks[merged - 1].first == marks[i].first) {
          marks[merged - 1].second += marks[i].second;
        } else {
          marks[merged++] = marks[i];
        }
      }
      marks.resize(merged);
      auto& births = scratch.bucket_births;
      births.clear();
      std::int64_t accum = 0;
      for (const auto& [ts, payload] : marks) {
        accum += payload;
        if (accum >= options.ddp_bucket_bytes) {
          births.emplace_back(ts, options.ddp_bucket_bytes);
          accum = 0;
        }
      }
      if (accum > 0 &&
          (births.empty() || births.back().first != marks.back().first)) {
        // Tail payload below the threshold gets the final flush bucket
        // (when its timestamp already carries a bucket, the cap absorbed
        // it above).
        births.emplace_back(marks.back().first,
                            std::min(accum, options.ddp_bucket_bytes));
      }
      const std::size_t depth =
          static_cast<std::size_t>(options.ddp_bucket_count);
      for (std::size_t b = 0; b < births.size(); ++b) {
        const util::TimeUs birth = births[b].first;
        util::TimeUs death = -1;
        if (b + depth < births.size()) {
          death = births[b + depth].first;
        } else if (optimizer_start_ts >= 0) {
          death = std::max(optimizer_start_ts, birth + 1);
        }
        inject("ddp_bucket", births[b].second, birth, death);
      }
    }

    // ZeRO-3 parameter gathers: paired gather/release around each
    // component's forward window and again around its backward window,
    // sized by the component's largest TP-sharded (un-DP-sharded)
    // parameter block. Serialized — a new gather releases the previous
    // one (prefetch depth 1) — so at most one is live at any event index
    // and each is bounded by the resident mode's single max-sized buffer.
    if (d > 1 && options.zero >= ZeroStage::kFull) {
      auto& gathers = scratch.gathers;
      gathers.clear();
      for (std::size_t c = 0; c < comp_slots; ++c) {
        const std::int64_t bytes = scratch.comp_param[c];
        if (bytes <= 0) continue;
        if (scratch.fwd_start[c] >= 0) {
          gathers.push_back(
              {scratch.fwd_start[c],
               std::max(scratch.fwd_end[c], scratch.fwd_start[c] + 1),
               bytes});
        }
        if (scratch.bwd_start[c] >= 0) {
          gathers.push_back(
              {scratch.bwd_start[c],
               std::max(scratch.bwd_end[c], scratch.bwd_start[c] + 1),
               bytes});
        }
      }
      std::sort(gathers.begin(), gathers.end(),
                [](const RankScratch::GatherWindow& a,
                   const RankScratch::GatherWindow& b) {
                  if (a.start != b.start) return a.start < b.start;
                  if (a.end != b.end) return a.end < b.end;
                  return a.bytes < b.bytes;
                });
      std::size_t kept = 0;
      for (std::size_t i = 0; i < gathers.size(); ++i) {
        if (kept > 0 && gathers[kept - 1].start == gathers[i].start) {
          // Same gather instant: the depth-1 arena holds the larger tensor.
          gathers[kept - 1].bytes =
              std::max(gathers[kept - 1].bytes, gathers[i].bytes);
          gathers[kept - 1].end =
              std::max(gathers[kept - 1].end, gathers[i].end);
        } else {
          gathers[kept++] = gathers[i];
        }
      }
      gathers.resize(kept);
      for (std::size_t i = 0; i < gathers.size(); ++i) {
        util::TimeUs end = gathers[i].end;
        if (i + 1 < gathers.size()) end = std::min(end, gathers[i + 1].start);
        inject("zero3_allgather", gathers[i].bytes, gathers[i].start, end);
      }
    }

    // TP all-reduce staging: sized from the actual synchronized blocks and
    // alive only across the span they cover (resident when a synchronized
    // block never frees).
    if (t > 1 && max_sync_bytes > 0 && first_sync_ts >= 0) {
      const util::TimeUs end =
          sync_persistent ? -1 : std::max(last_sync_end, first_sync_ts + 1);
      inject("tp_allreduce", max_sync_bytes, first_sync_ts, end);
    }
  }

  std::sort(out.events.begin(), out.events.end(), orchestrated_event_order);
  return out;
}

/// The first difference between two transform outputs (events, sliced
/// blocks and injected buffers, every field compared); "" when they are
/// identical.
inline std::string difference(const RankScratch& a, const RankScratch& b) {
  const auto& x = a.sequence.events;
  const auto& y = b.sequence.events;
  if (x.size() != y.size()) {
    return "event counts differ: " + std::to_string(x.size()) + " vs " +
           std::to_string(y.size());
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] != y[i]) {
      return "event " + std::to_string(i) + " differs: (ts " +
             std::to_string(x[i].ts) + ", id " +
             std::to_string(x[i].block_id) + ", " +
             std::to_string(x[i].bytes) + " B, " +
             (x[i].is_alloc ? "alloc" : "free") + ") vs (ts " +
             std::to_string(y[i].ts) + ", id " +
             std::to_string(y[i].block_id) + ", " +
             std::to_string(y[i].bytes) + " B, " +
             (y[i].is_alloc ? "alloc" : "free") + ")";
    }
  }
  const auto& p = a.sequence.blocks;
  const auto& q = b.sequence.blocks;
  if (p.size() != q.size()) {
    return "block counts differ: " + std::to_string(p.size()) + " vs " +
           std::to_string(q.size());
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i].id != q[i].id || p[i].size != q[i].size ||
        p[i].alloc_ts != q[i].alloc_ts || p[i].free_ts != q[i].free_ts ||
        p[i].component != q[i].component || p[i].phase != q[i].phase) {
      return "block " + std::to_string(i) + " differs";
    }
  }
  if (a.buffers.size() != b.buffers.size()) {
    return "buffer counts differ: " + std::to_string(a.buffers.size()) +
           " vs " + std::to_string(b.buffers.size());
  }
  for (std::size_t i = 0; i < a.buffers.size(); ++i) {
    const CollectiveBuffer& u = a.buffers[i];
    const CollectiveBuffer& v = b.buffers[i];
    if (u.kind != v.kind || u.bytes != v.bytes || u.alloc_ts != v.alloc_ts ||
        u.free_ts != v.free_ts || u.block_id != v.block_id) {
      return "buffer " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/// difference() between `transformer`'s output, built into `scratch` (which
/// may hold an earlier candidate), and the reference's on the same
/// arguments.
inline std::string difference_from_reference(
    const SequenceTransformer& transformer,
    const std::vector<ComponentProfile>& profiles,
    const RankTransformOptions& options,
    const std::vector<PipelineStage>& chunks, std::size_t pipeline_ranks,
    std::size_t rank, RankScratch& scratch) {
  transformer.rank_sequence(options, chunks, pipeline_ranks, rank, scratch);
  RankScratch expected;
  rank_sequence(transformer.base(), profiles, options, chunks, pipeline_ranks,
                rank, expected);
  return difference(scratch, expected);
}

}  // namespace xmem::core::reference
