// The best-fit-with-coalescing (BFC) core shared by every block-splitting
// allocator backend.
//
// The paper's simulator (§3.4) replays sequences through BFC allocators,
// and §6.4 argues that this core generalizes across frameworks while the
// policies around it stay framework-specific. This header is that core,
// once: the node arena, the live-id table, the (size, addr) free-set order
// with its best-fit lookup, and split/coalesce over address-ordered block
// lists. The backends (caching_allocator, expandable_allocator,
// tf_bfc_allocator, stream_pool_allocator, baselines/basic_bfc) keep the
// policy: rounding, segment/region/chunk sizing, when to split, which free
// block may serve a request, and when memory goes back to the driver.
// docs/ALLOCATORS.md lists which decision lives where.
//
// Block nodes and handles cost no allocation once a replay has warmed up:
// nodes are recycled through the arena, ids index a flat table, and both
// keep their capacity across reset(), which is what makes
// reset-instead-of-rebuild the replay hot path (ReplayScratch in
// core/simulator.h). The free set keeps its (size, addr) keys inline in
// sorted runs (FreeSet below), so the core has no per-event tree: once a
// replay has warmed up, no alloc or free allocates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

namespace xmem::alloc::bfc {

/// Fields every BFC block carries. A backend derives its block type as
/// `struct Block : bfc::Node<Block> { ...extras... }`; split() copies the
/// extras (pool, owner) onto the remainder.
template <class Block>
struct Node {
  std::uint64_t addr = 0;
  std::int64_t size = 0;
  bool allocated = false;
  Block* prev = nullptr;  ///< address-order neighbours within one segment
  Block* next = nullptr;
};

/// Live handles: ids 1, 2, ... in allocation order, never reused until
/// clear() restarts them, so the table is a flat vector indexed by id.
/// A value-initialized T marks a free slot.
template <class T>
class LiveIds {
 public:
  std::int64_t add(T value) {
    const std::int64_t id = next_++;
    const auto slot = static_cast<std::size_t>(id);
    if (slot >= slots_.size()) {
      slots_.resize(std::max(slots_.size() * 2, slot + 1), T{});
    }
    slots_[slot] = value;
    ++size_;
    return id;
  }
  /// The live value for `id`, or T{} when `id` is not live.
  T get(std::int64_t id) const {
    return id >= 1 && id < next_ ? slots_[static_cast<std::size_t>(id)] : T{};
  }
  /// Remove and return the live value for `id` (T{} when not live).
  T take(std::int64_t id) {
    const T value = get(id);
    if (value != T{}) {
      slots_[static_cast<std::size_t>(id)] = T{};
      --size_;
    }
    return value;
  }
  template <class Fn>
  void for_each(Fn fn) const {
    for (std::int64_t id = 1; id < next_; ++id) {
      const T& value = slots_[static_cast<std::size_t>(id)];
      if (value != T{}) fn(value);
    }
  }
  std::int64_t size() const { return size_; }
  /// Forget every handle and restart numbering; capacity is kept.
  void clear() {
    std::fill(slots_.begin() + 1, slots_.begin() + next_, T{});
    size_ = 0;
    next_ = 1;
  }

 private:
  std::vector<T> slots_ = std::vector<T>(1);
  std::int64_t next_ = 1;
  std::int64_t size_ = 0;
};

/// Free blocks in (size, addr) order — the order upstream BFC allocators
/// search, so best fit ties go to the lowest address.
///
/// The order is kept as sorted runs of at most kRunMax entries that carry
/// their key inline, so no comparison reads a Block. A lookup binary-searches
/// the runs' last keys, then one run; an insert or erase shifts the tail of
/// that one run. A run that passes kRunMax entries splits in two and a run
/// that empties is dropped; both edit the run table (O(n / kRunMax)), and
/// past the first, a run is only created by a split, so that happens at most
/// once per kRunMax / 2 inserts. Runs live in fixed slabs of one flat vector,
/// recycled through a spare list: once warmed up, nothing here allocates,
/// and clear() keeps the capacity as Core::reset() does.
template <class Block>
class FreeSet {
 public:
  /// Best fit: remove and return the smallest free block of at least
  /// `size` bytes for which `usable(block)` holds, or nullptr.
  template <class Usable>
  Block* take(std::int64_t size, Usable usable) {
    std::size_t r = first_run_not_below(size, 0);
    if (r == runs_.size()) return nullptr;
    Entry* begin = entries(runs_[r]);
    Entry* it = std::lower_bound(
        begin, begin + runs_[r].count, size,
        [](const Entry& entry, std::int64_t key) { return entry.size < key; });
    // Every entry of a later run is past the first run's last key.
    for (;;) {
      Entry* const end = entries(runs_[r]) + runs_[r].count;
      for (; it != end; ++it) {
        if (usable(*it->block)) {
          Block* const block = it->block;
          remove(r, it);
          return block;
        }
      }
      if (++r == runs_.size()) return nullptr;
      it = entries(runs_[r]);
    }
  }
  Block* take(std::int64_t size) {
    return take(size, [](const Block&) { return true; });
  }
  /// Add `block` under its current (size, addr); a no-op when that key is
  /// already present.
  void insert(Block* block) {
    const Entry entry{block->size, block->addr, block};
    if (runs_.empty()) {
      runs_.push_back(Run{entry.size, entry.addr, acquire_slab(), 0});
    }
    std::size_t r = first_run_not_below(entry.size, entry.addr);
    if (r == runs_.size()) --r;  // past every key: the last run's tail
    Run& run = runs_[r];
    Entry* const begin = entries(run);
    Entry* const end = begin + run.count;
    Entry* const at = std::lower_bound(begin, end, entry, less);
    if (at != end && !less(entry, *at)) return;
    std::move_backward(at, end, end + 1);  // the slab holds kRunMax + 1
    *at = entry;
    if (at == end) {
      run.size = entry.size;
      run.addr = entry.addr;
    }
    if (++run.count > kRunMax) split(r);
  }
  /// Remove the entry under `block`'s current (size, addr); a no-op when
  /// there is none.
  void erase(const Block* block) {
    const std::size_t r = first_run_not_below(block->size, block->addr);
    if (r == runs_.size()) return;
    Entry* const begin = entries(runs_[r]);
    Entry* const end = begin + runs_[r].count;
    const Entry key{block->size, block->addr, nullptr};
    Entry* const at = std::lower_bound(begin, end, key, less);
    if (at != end && !less(key, *at)) remove(r, at);
  }
  void clear() {
    for (const Run& run : runs_) spare_slabs_.push_back(run.slab);
    runs_.clear();
  }

 private:
  /// A run splits once it passes this many entries. Long enough that a
  /// typical replay's free set is one run, short enough that shifting a
  /// run's tail stays a few cache lines.
  static constexpr std::uint32_t kRunMax = 256;
  static constexpr std::size_t kSlab = kRunMax + 1;

  struct Entry {
    std::int64_t size;
    std::uint64_t addr;
    Block* block;
  };
  /// A sorted, non-empty run: its last key, and the slab holding it.
  struct Run {
    std::int64_t size;
    std::uint64_t addr;
    std::uint32_t slab;
    std::uint32_t count;
  };

  static bool less(const Entry& a, const Entry& b) {
    return a.size != b.size ? a.size < b.size : a.addr < b.addr;
  }
  /// The first run whose last key is >= (size, addr), or runs_.size().
  std::size_t first_run_not_below(std::int64_t size, std::uint64_t addr) const {
    const auto it = std::lower_bound(
        runs_.begin(), runs_.end(), Entry{size, addr, nullptr},
        [](const Run& run, const Entry& key) {
          return less(Entry{run.size, run.addr, nullptr}, key);
        });
    return static_cast<std::size_t>(it - runs_.begin());
  }
  Entry* entries(const Run& run) {
    return slabs_.data() + static_cast<std::size_t>(run.slab) * kSlab;
  }
  std::uint32_t acquire_slab() {
    if (!spare_slabs_.empty()) {
      const std::uint32_t slab = spare_slabs_.back();
      spare_slabs_.pop_back();
      return slab;
    }
    const auto slab = static_cast<std::uint32_t>(slabs_.size() / kSlab);
    slabs_.resize(slabs_.size() + kSlab);
    return slab;
  }
  /// Remove `*at` from run `r`, dropping the run when it empties.
  void remove(std::size_t r, Entry* at) {
    Run& run = runs_[r];
    Entry* const end = entries(run) + run.count;
    std::move(at + 1, end, at);
    if (--run.count == 0) {
      spare_slabs_.push_back(run.slab);
      runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(r));
    } else if (at + 1 == end) {
      run.size = at[-1].size;
      run.addr = at[-1].addr;
    }
  }
  /// Move the upper half of run `r` into a new run right after it.
  void split(std::size_t r) {
    const std::uint32_t slab = acquire_slab();  // may move slabs_
    Run& run = runs_[r];
    const std::uint32_t keep = run.count / 2;
    Entry* const begin = entries(run);
    std::copy(begin + keep, begin + run.count,
              slabs_.data() + static_cast<std::size_t>(slab) * kSlab);
    const Run upper{run.size, run.addr, slab, run.count - keep};
    run.count = keep;
    run.size = begin[keep - 1].size;
    run.addr = begin[keep - 1].addr;
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(r) + 1, upper);
  }

  std::vector<Run> runs_;  ///< in key order
  std::vector<Entry> slabs_;
  std::vector<std::uint32_t> spare_slabs_;
};

/// Node arena + live-id table + split/coalesce over one backend's blocks.
template <class Block>
class Core {
 public:
  /// A default-valued node from the spare list, or a new one. Nodes live
  /// in a grow-only deque, so pointers stay valid for the arena's lifetime.
  Block* acquire() {
    if (spare_.empty()) return &nodes_.emplace_back();
    Block* block = spare_.back();
    spare_.pop_back();
    *block = Block{};
    return block;
  }
  void recycle(Block* block) { spare_.push_back(block); }

  /// Mark `block` allocated and hand out its id.
  std::int64_t publish(Block* block) {
    block->allocated = true;
    return live_.add(block);
  }
  /// Unpublish `id`: the block it named, now marked free, or nullptr when
  /// `id` is not live.
  Block* retire(std::int64_t id) {
    Block* block = live_.take(id);
    if (block != nullptr) block->allocated = false;
    return block;
  }
  Block* live(std::int64_t id) const { return live_.get(id); }
  std::int64_t num_live() const { return live_.size(); }

  /// Split free `block` at `size`: it keeps the first `size` bytes, and the
  /// remainder — a copy of it (extras included) over the rest — is linked
  /// after it and inserted into `free`. Returns the remainder.
  Block* split(Block* block, std::int64_t size, FreeSet<Block>& free) {
    Block* rest = acquire();
    *rest = *block;
    rest->addr += static_cast<std::uint64_t>(size);
    rest->size -= size;
    rest->prev = block;
    if (rest->next != nullptr) rest->next->prev = rest;
    block->next = rest;
    block->size = size;
    free.insert(rest);
    return rest;
  }

  /// Merge free `block` with each free address neighbour (previous first),
  /// calling `on_merge(survivor, absorbed)` before the absorbed node is
  /// recycled, then insert the result into `free` and return it.
  template <class OnMerge>
  Block* coalesce(Block* block, FreeSet<Block>& free, OnMerge on_merge) {
    if (Block* prev = block->prev; prev != nullptr && !prev->allocated) {
      free.erase(prev);
      absorb(prev, block, on_merge);
      block = prev;
    }
    if (Block* next = block->next; next != nullptr && !next->allocated) {
      free.erase(next);
      absorb(block, next, on_merge);
    }
    free.insert(block);
    return block;
  }
  Block* coalesce(Block* block, FreeSet<Block>& free) {
    return coalesce(block, free, [](Block*, Block*) {});
  }

  /// Recycle every node and forget every handle (capacity is kept).
  void reset() {
    spare_.clear();
    for (Block& block : nodes_) spare_.push_back(&block);
    live_.clear();
  }

 private:
  template <class OnMerge>
  void absorb(Block* survivor, Block* absorbed, OnMerge& on_merge) {
    survivor->size += absorbed->size;
    survivor->next = absorbed->next;
    if (absorbed->next != nullptr) absorbed->next->prev = survivor;
    on_merge(survivor, absorbed);
    recycle(absorbed);
  }

  std::deque<Block> nodes_;
  std::vector<Block*> spare_;
  LiveIds<Block*> live_;
};

}  // namespace xmem::alloc::bfc
