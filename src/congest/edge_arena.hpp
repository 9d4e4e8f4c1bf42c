// Flat chunked FIFO arena for the per-directed-edge message backlogs.
//
// Replaces the simulator's former `std::vector<std::deque<Message>>`: a
// deque per edge scatters every backlog over its own heap allocations, while
// here all queued messages live in per-shard chunk pools -- contiguous
// vectors of fixed-capacity chunks linked into per-edge FIFOs and recycled
// through a free list. Two consequences:
//
//   * cache locality: one round's backlog traffic touches a handful of
//     chunk-pool pages instead of 2m individual deques;
//   * lock-free parallelism: every directed edge is owned by exactly one
//     shard (the shard of its DESTINATION node), an edge's chunks are drawn
//     only from its owner shard's pool, and the parallel executor lets only
//     the owner worker touch that pool -- so enqueue (merge) and transmit
//     need no locks or atomics at all.
//
// The arena itself is single-threaded per shard; all cross-shard discipline
// lives in congest::Network's round executor. It is a template over the
// queued record: generic runs queue 48-byte Messages (EdgeArena), the
// token-walk kernel queues 16-byte KernelTokens with its per-edge routing
// data as the queue tag (Network::TokenArena).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "congest/message.hpp"

namespace drw::congest {

/// The default per-edge tag: nothing.
struct NoEdgeTag {};

/// `Tag` is an optional per-edge payload kept beside the edge's queue
/// header (same cache line), e.g. the routing data a delivery needs; it
/// survives reset() and draining and is left to the owner to fill.
template <typename Record, std::uint32_t Cap, typename Tag = NoEdgeTag>
class BasicEdgeArena {
 public:
  /// Records per chunk: sized so a chunk (Cap * sizeof(Record) + link,
  /// cache-line aligned) spans a small fixed number of cache lines while
  /// short backlogs (the common case -- one token queued per edge) waste
  /// little space.
  static constexpr std::uint32_t kChunkCap = Cap;

  /// Re-initializes for `edge_count` directed edges and `shard_count` owner
  /// pools. Drops all queued messages and pooled chunks; the tags of edges
  /// below the old edge count are kept.
  void reset(std::size_t edge_count, unsigned shard_count) {
    queues_.resize(edge_count);
    for (Queue& q : queues_) q.clear();
    pools_.assign(shard_count, Pool{});
  }

  Tag& tag(std::uint32_t eid) noexcept { return queues_[eid].tag; }

  /// Appends to edge `eid`'s FIFO. `shard` must be the edge's owner shard.
  /// Returns the queue depth after the push (1 == the edge was idle), so the
  /// merge loop needs no separate size() lookups on its hottest path.
  std::uint32_t push(unsigned shard, std::uint32_t eid, const Record& m) {
    Pool& pool = pools_[shard];
    Queue& q = queues_[eid];
    if (q.tail == kNil) {
      const std::uint32_t c = alloc(pool);
      q.head = q.tail = c;
      q.head_off = q.tail_off = 0;
    } else if (q.tail_off == kChunkCap) {
      const std::uint32_t c = alloc(pool);
      pool.chunks[q.tail].next = c;
      q.tail = c;
      q.tail_off = 0;
    }
    pool.chunks[q.tail].slot[q.tail_off++] = m;
    return ++q.size;
  }

  /// Pops the front of edge `eid`'s FIFO. Precondition: size(eid) > 0.
  Record pop(unsigned shard, std::uint32_t eid) {
    Pool& pool = pools_[shard];
    Queue& q = queues_[eid];
    Chunk& head = pool.chunks[q.head];
    const Record m = head.slot[q.head_off++];
    if (--q.size == 0) {
      release(pool, q.head);  // head == tail when the queue drains
      q.clear();
    } else if (q.head_off == kChunkCap) {
      const std::uint32_t next = head.next;
      release(pool, q.head);
      q.head = next;
      q.head_off = 0;
    }
    return m;
  }

  std::uint32_t size(std::uint32_t eid) const noexcept {
    return queues_[eid].size;
  }

  /// Drops all messages of edge `eid`, returning its chunks to the pool.
  void clear_queue(unsigned shard, std::uint32_t eid) {
    Pool& pool = pools_[shard];
    Queue& q = queues_[eid];
    std::uint32_t c = q.head;
    while (c != kNil) {
      const std::uint32_t next = pool.chunks[c].next;
      release(pool, c);
      c = next;
    }
    q.clear();
  }

  /// True iff no edge has queued messages (post-run invariant check).
  bool all_empty() const noexcept {
    for (const Queue& q : queues_) {
      if (q.size != 0) return false;
    }
    return true;
  }

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  struct alignas(64) Chunk {
    std::array<Record, kChunkCap> slot;
    std::uint32_t next = kNil;
  };
  struct Pool {
    std::vector<Chunk> chunks;
    std::uint32_t free_head = kNil;
  };
  struct Queue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t size = 0;
    std::uint16_t head_off = 0;
    std::uint16_t tail_off = 0;
    [[no_unique_address]] Tag tag{};

    /// Empties the FIFO state; the tag stays.
    void clear() noexcept {
      head = tail = kNil;
      size = 0;
      head_off = tail_off = 0;
    }
  };

  static std::uint32_t alloc(Pool& pool) {
    if (pool.free_head != kNil) {
      const std::uint32_t c = pool.free_head;
      pool.free_head = pool.chunks[c].next;
      pool.chunks[c].next = kNil;
      return c;
    }
    pool.chunks.emplace_back();
    return static_cast<std::uint32_t>(pool.chunks.size() - 1);
  }

  static void release(Pool& pool, std::uint32_t c) {
    pool.chunks[c].next = pool.free_head;
    pool.free_head = c;
  }

  std::vector<Queue> queues_;  // per directed edge
  std::vector<Pool> pools_;    // per owner shard
};

/// Generic runs: a chunk is 12 * 48B Messages + link.
using EdgeArena = BasicEdgeArena<Message, 12>;

}  // namespace drw::congest
