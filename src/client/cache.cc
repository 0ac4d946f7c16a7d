#include "client/cache.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>

namespace galloper::client {

namespace {

// kProtectedFraction of each shard is reserved for entries that have HIT
// at least once; the remainder is the probationary segment a cold scan
// churns through. 80/20 keeps the hot head pinned while leaving real
// admission room.
constexpr double kProtectedFraction = 0.8;

constexpr uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t default_shards() {
  size_t shards = 16;
  if (const char* env = std::getenv("GALLOPER_CLIENT_CACHE_SHARDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) shards = static_cast<size_t>(std::min(parsed, 256l));
  }
  return shards;
}

}  // namespace

size_t BlockCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(
      mix64(mix64(k.store_uid) ^ mix64(k.file * 0x9e3779b97f4a7c15ull + 1) ^
            mix64(k.block * 0xbf58476d1ce4e5b9ull + 2) ^ k.segment));
}

BlockCache::BlockCache(size_t capacity_bytes, size_t shards)
    : capacity_(capacity_bytes),
      shard_count_(std::bit_ceil(std::max<size_t>(
          1, shards == 0 ? default_shards() : std::min<size_t>(shards, 256)))),
      shard_capacity_(capacity_ == 0
                          ? 0
                          : std::max<size_t>(1, capacity_ / shard_count_)),
      shards_(capacity_ == 0 ? nullptr : new Shard[shard_count_]) {}

BlockCache& BlockCache::global() {
  static BlockCache* cache = [] {
    size_t mib = 64;
    if (const char* env = std::getenv("GALLOPER_CLIENT_CACHE")) {
      const std::string value(env);
      if (value == "off" || value == "OFF") {
        mib = 0;
      } else {
        const long parsed = std::strtol(env, nullptr, 10);
        mib = parsed > 0 ? static_cast<size_t>(std::min(parsed, 1l << 20)) : 0;
      }
    }
    return new BlockCache(mib << 20);
  }();
  return *cache;
}

BlockCache::Shard& BlockCache::shard_of(const Key& key) {
  // Re-scramble the bucket hash so shard choice and bucket choice are not
  // the same low bits.
  const size_t h = mix64(KeyHash{}(key));
  return shards_[h & (shard_count_ - 1)];
}

void BlockCache::erase_locked(
    Shard& shard,
    std::unordered_map<Key, Entry, KeyHash>::iterator it) {
  Entry& e = it->second;
  const size_t size = e.data.size();
  if (e.protected_seg) {
    shard.protected_bytes -= size;
    shard.protect.erase(e.pos);
  } else {
    shard.probation.erase(e.pos);
  }
  shard.bytes -= size;
  resident_bytes_.fetch_sub(size, std::memory_order_relaxed);
  resident_entries_.fetch_sub(1, std::memory_order_relaxed);
  shard.map.erase(it);
}

void BlockCache::make_room_locked(Shard& shard, size_t incoming) {
  while (shard.bytes + incoming > shard_capacity_) {
    std::list<Key>* victims = &shard.probation;
    if (victims->empty()) victims = &shard.protect;
    if (victims->empty()) break;
    erase_locked(shard, shard.map.find(victims->back()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

BlockCache::EntryRef BlockCache::get(uint64_t store_uid, uint64_t file,
                                     uint64_t block, uint64_t segment,
                                     uint64_t generation) {
  if (!enabled()) return nullptr;
  if (resident_entries_.load(std::memory_order_relaxed) == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const Key key{store_uid, file, block, segment};
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Entry& e = it->second;
  if (e.generation != generation) {
    // Older entry: the store mutated or quarantined this block after it
    // was verified — drop it, the bytes describe a world that no longer
    // exists. NEWER entry: the CALLER's generation snapshot is behind (a
    // mid-stream reader racing an update); the entry is the fresher one,
    // so miss without evicting it.
    if (e.generation < generation) {
      erase_locked(shard, it);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const size_t size = e.data.size();
  if (e.protected_seg) {
    shard.protect.splice(shard.protect.begin(), shard.protect, e.pos);
  } else {
    // First hit promotes out of probation; demote the protected tail back
    // to probation's front (NOT eviction) while over the protected cap.
    shard.probation.erase(e.pos);
    shard.protect.push_front(key);
    e.pos = shard.protect.begin();
    e.protected_seg = true;
    shard.protected_bytes += size;
    const size_t protected_cap = static_cast<size_t>(
        static_cast<double>(shard_capacity_) * kProtectedFraction);
    while (shard.protected_bytes > protected_cap &&
           shard.protect.size() > 1) {
      auto demote = shard.map.find(shard.protect.back());
      Entry& d = demote->second;
      shard.protect.pop_back();
      shard.probation.push_front(demote->first);
      d.pos = shard.probation.begin();
      d.protected_seg = false;
      shard.protected_bytes -= d.data.size();
    }
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hit_bytes_.fetch_add(size, std::memory_order_relaxed);
  return e.data;
}

void BlockCache::put(uint64_t store_uid, uint64_t file, uint64_t block,
                     uint64_t segment, uint64_t generation, EntryRef bytes) {
  if (!enabled() || bytes == nullptr) return;
  const size_t size = bytes.size();
  if (size == 0 || size > shard_capacity_) return;  // uncacheable
  const Key key{store_uid, file, block, segment};
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Refresh in place, keeping segment membership and recency.
    Entry& e = it->second;
    const size_t old = e.data.size();
    shard.bytes += size - old;
    if (e.protected_seg) shard.protected_bytes += size - old;
    resident_bytes_.fetch_add(size, std::memory_order_relaxed);
    resident_bytes_.fetch_sub(old, std::memory_order_relaxed);
    e.generation = generation;
    e.data = std::move(bytes);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    inserted_bytes_.fetch_add(size, std::memory_order_relaxed);
    make_room_locked(shard, 0);
    return;
  }
  make_room_locked(shard, size);
  shard.probation.push_front(key);
  auto [pos, inserted] = shard.map.emplace(
      key, Entry{generation, std::move(bytes), false, shard.probation.begin()});
  (void)inserted;
  shard.bytes += size;
  resident_bytes_.fetch_add(size, std::memory_order_relaxed);
  resident_entries_.fetch_add(1, std::memory_order_relaxed);
  insertions_.fetch_add(1, std::memory_order_relaxed);
  inserted_bytes_.fetch_add(size, std::memory_order_relaxed);
}

void BlockCache::invalidate(uint64_t store_uid, uint64_t file, uint64_t block,
                            uint64_t segments) {
  if (!enabled()) return;
  for (uint64_t seg = 0; seg < segments; ++seg) {
    if (resident_entries_.load(std::memory_order_relaxed) == 0) return;
    const Key key{store_uid, file, block, seg};
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) continue;
    erase_locked(shard, it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
}

BlockCacheStats BlockCache::stats() const {
  BlockCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.inserted_bytes = inserted_bytes_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.hit_bytes = hit_bytes_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.resident_entries = resident_entries_.load(std::memory_order_relaxed);
  s.capacity_bytes = capacity_;
  s.shards = shard_count_;
  return s;
}

void BlockCache::clear() {
  if (!enabled()) return;
  for (size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    while (!shard.map.empty()) erase_locked(shard, shard.map.begin());
  }
}

uint64_t next_cache_uid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace galloper::client
