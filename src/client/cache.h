// BlockCache: a process-wide, sharded, size-bounded cache of VERIFIED
// block segments (store/segments.h: one write-time CRC-32C per 64 KiB of
// a block), keyed by (store uid, file, block, segment) plus the block's
// GENERATION at verification time.
//
// Why segments and why generations:
//  - Entries are inserted only by readers that just CRC-checked the bytes
//    against the segment's write-time checksum, so a cache hit is as
//    trustworthy as a verified read — no re-CRC on the hot path. A read
//    miss fills exactly the segments its decode plan read (64 KiB each),
//    not whole multi-MiB blocks.
//  - FileStore's block versions carry a generation, bumped by every
//    mutation or quarantine (update_range, repair install, CRC quarantine,
//    fail_server). get() returns bytes only when the caller's generation
//    (its read's snapshot) matches the one stored with the entry; a
//    mismatch drops the entry and reports a miss. Bytes of another
//    version are therefore structurally unservable: a new version carries
//    a new generation, and entries are keyed by the generation of the
//    version their bytes were taken from. (Silent corruption deliberately does NOT bump — the
//    cached copy still holds the true logical content, which is exactly
//    what verified reads of a corrupt block reconstruct.)
//  - store uid (a process-unique counter, not the address) prevents a
//    destroyed store's entries from aliasing a new store's files.
//
// Replacement is a segmented LRU per shard: new entries land in a small
// probationary segment and only a HIT promotes them to the protected
// segment (capped at kProtectedFraction of the shard), so one cold scan
// churns probation instead of evicting the hot Zipf head. Shard count is
// a power of two (GALLOPER_CLIENT_CACHE_SHARDS, default 16); capacity is
// GALLOPER_CLIENT_CACHE=off|<MiB>, default 64. An entry is the store's own
// immutable segment (util::SharedBytes), not a copy: it aliases store
// memory, so a hit costs a refcount and the cache adds no bytes while the
// segment is still stored. Capacity counts each entry's size all the same
// (64 KiB per full segment), and an entry whose segment the store has
// since replaced keeps the old bytes alive until it is evicted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/bytes.h"

namespace galloper::client {

struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;          // lookups that found nothing servable
  uint64_t insertions = 0;
  uint64_t inserted_bytes = 0;  // sum of entry sizes inserted (fill traffic)
  uint64_t evictions = 0;       // capacity evictions
  uint64_t invalidations = 0;   // generation-mismatch drops + explicit drops
  uint64_t hit_bytes = 0;       // sum of entry sizes handed out on hits
  uint64_t resident_bytes = 0;
  uint64_t resident_entries = 0;
  uint64_t capacity_bytes = 0;
  size_t shards = 0;
  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class BlockCache {
 public:
  // Cached segments are refcounted views, so an entry evicted or
  // invalidated mid-decode stays alive for the reader holding it.
  using EntryRef = SharedBytes;

  // capacity_bytes == 0 disables the cache (get misses nothing — it
  // returns null without counting; put is a no-op). `shards` is rounded
  // up to a power of two; 0 → 16.
  explicit BlockCache(size_t capacity_bytes, size_t shards = 0);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Process-wide instance: GALLOPER_CLIENT_CACHE=off|0 disables, <MiB>
  // sizes it (default 64 MiB); GALLOPER_CLIENT_CACHE_SHARDS overrides the
  // shard count (clamped to [1, 256], rounded up to a power of two).
  static BlockCache& global();

  bool enabled() const { return capacity_ > 0; }
  size_t capacity_bytes() const { return capacity_; }
  size_t shard_count() const { return shard_count_; }

  // Bytes of (store_uid, file, block, segment) if cached AND the entry's
  // stored generation equals `generation` (the caller's: the generation of
  // the block version its read snapshotted). A generation mismatch
  // drops the stale entry (counted as an invalidation) and misses.
  EntryRef get(uint64_t store_uid, uint64_t file, uint64_t block,
               uint64_t segment, uint64_t generation);

  // Inserts verified segment bytes observed at `generation`. The caller
  // must have CRC-verified `bytes` against their checksum, with bytes,
  // checksum and generation taken from one block version. Replaces any
  // existing entry for the key in place (keeping its LRU segment and
  // recency).
  void put(uint64_t store_uid, uint64_t file, uint64_t block,
           uint64_t segment, uint64_t generation, EntryRef bytes);

  // Explicitly drops segments [0, segments) of one block (the store calls
  // this when it bumps the generation, so memory is reclaimed eagerly
  // rather than waiting for a mismatch-on-get).
  void invalidate(uint64_t store_uid, uint64_t file, uint64_t block,
                  uint64_t segments);

  // Cumulative counters plus current residency. Safe while readers run.
  BlockCacheStats stats() const;

  // Drops every entry (counters keep accumulating). Test hook.
  void clear();

 private:
  struct Key {
    uint64_t store_uid;
    uint64_t file;
    uint64_t block;
    uint64_t segment;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    uint64_t generation = 0;
    EntryRef data;
    bool protected_seg = false;
    std::list<Key>::iterator pos;  // position in its segment list
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> map;
    // Both lists are MRU-at-front.
    std::list<Key> probation;
    std::list<Key> protect;
    size_t bytes = 0;
    size_t protected_bytes = 0;
  };

  Shard& shard_of(const Key& key);
  // Erases the entry `it` points at, adjusting shard + global accounting.
  void erase_locked(Shard& shard, std::unordered_map<Key, Entry,
                                                     KeyHash>::iterator it);
  // Evicts LRU entries (probation tail first, then protected tail) until
  // the shard can hold `incoming` more bytes.
  void make_room_locked(Shard& shard, size_t incoming);

  const size_t capacity_;
  const size_t shard_count_;
  const size_t shard_capacity_;
  std::unique_ptr<Shard[]> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> inserted_bytes_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> hit_bytes_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> resident_entries_{0};
};

// Hands out process-unique ids for cache keying (FileStore takes one per
// instance, so entries from a destroyed store can never alias a new one).
uint64_t next_cache_uid();

}  // namespace galloper::client
