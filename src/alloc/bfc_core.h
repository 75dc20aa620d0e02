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
// core/simulator.h). The free set is a std::set; it is the only per-event
// tree left.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
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
template <class Block>
class FreeSet {
 public:
  /// Best fit: remove and return the smallest free block of at least
  /// `size` bytes for which `usable(block)` holds, or nullptr.
  template <class Usable>
  Block* take(std::int64_t size, Usable usable) {
    for (auto it = blocks_.lower_bound(size); it != blocks_.end(); ++it) {
      if (usable(**it)) {
        Block* block = *it;
        blocks_.erase(it);
        return block;
      }
    }
    return nullptr;
  }
  Block* take(std::int64_t size) {
    return take(size, [](const Block&) { return true; });
  }
  void insert(Block* block) { blocks_.insert(block); }
  void erase(Block* block) { blocks_.erase(block); }
  void clear() { blocks_.clear(); }

 private:
  struct BySizeThenAddr {
    using is_transparent = void;
    bool operator()(const Block* a, const Block* b) const {
      return a->size != b->size ? a->size < b->size : a->addr < b->addr;
    }
    bool operator()(const Block* a, std::int64_t size) const {
      return a->size < size;
    }
    bool operator()(std::int64_t size, const Block* b) const {
      return size < b->size;
    }
  };
  std::set<Block*, BySizeThenAddr> blocks_;
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
