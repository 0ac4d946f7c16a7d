// Byte-buffer helpers shared across the coding and simulation layers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/buffer_pool.h"
#include "util/rng.h"

namespace galloper {

namespace detail {

// Allocator whose unparameterized construct() default-initializes instead of
// value-initializing, so growing a Buffer leaves the new bytes indeterminate
// rather than zero-filling them. The codec data paths overwrite every output
// byte exactly once (encode/decode/repair write parity regions with
// overwrite-mode kernels), so the zero-fill would be a second full pass over
// output memory. Buffer(n, 0) / resize(n, 0) still zero-fill explicitly.
template <typename T, typename A = std::allocator<T>>
class DefaultInitAllocator : public A {
  using Traits = std::allocator_traits<A>;

 public:
  template <typename U>
  struct rebind {
    using other =
        DefaultInitAllocator<U, typename Traits::template rebind_alloc<U>>;
  };

  using A::A;

  template <typename U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) {
    Traits::construct(static_cast<A&>(*this), ptr,
                      std::forward<Args>(args)...);
  }
};

}  // namespace detail

// NOTE: Buffer(n) and resize(n) leave the bytes INDETERMINATE (see
// DefaultInitAllocator above); use Buffer(n, 0) when zeroed contents matter.
// Storage comes from the process-wide util::BufferPool (size-class-binned
// recycling, 64-byte aligned for pooled sizes), so the per-call output
// buffers of every codec data path and the streaming archive pipeline's
// queue slots are recycled instead of heap-churned. GALLOPER_BUFFER_POOL=off
// restores plain heap allocation.
using Buffer =
    std::vector<uint8_t, detail::DefaultInitAllocator<
                             uint8_t, util::PoolAllocator<uint8_t>>>;

// A non-owning view pair used by coding kernels.
using ByteSpan = std::span<uint8_t>;
using ConstByteSpan = std::span<const uint8_t>;

// An immutable byte range that shares ownership of the Buffer holding it
// (a shared pointer to its first byte plus a size): copying one bumps a
// refcount and never the bytes, and the owner lives until its last view is
// gone. The store keeps each block as such views of 64 KiB segments
// (share_pieces), and the block cache and in-flight decodes hold the same
// views. Null when default-built; dereferences to its bytes, like the
// shared_ptr<const Buffer> it replaced.
class SharedBytes {
 public:
  friend void release_pieces(std::vector<SharedBytes>& views,
                             size_t dying_owners_below);

  SharedBytes() = default;
  SharedBytes(std::nullptr_t) {}
  // All of `owner`.
  SharedBytes(const std::shared_ptr<const Buffer>& owner)
      : data_(owner, owner ? owner->data() : nullptr),
        size_(data_ ? owner->size() : 0) {}
  // `size` bytes at `data`, which keeps them alive.
  SharedBytes(std::shared_ptr<const uint8_t> data, size_t size)
      : data_(std::move(data)), size_(data_ ? size : 0) {}

  const uint8_t* data() const { return data_.get(); }
  size_t size() const { return size_; }
  ConstByteSpan operator*() const { return {data_.get(), size_}; }
  explicit operator bool() const { return data_ != nullptr; }
  friend bool operator==(const SharedBytes& a, std::nullptr_t) {
    return a.data_ == nullptr;
  }
  // Whether `next` starts where this view ends.
  bool followed_by(const SharedBytes& next) const {
    return data() + size_ == next.data();
  }

 private:
  std::shared_ptr<const uint8_t> data_;
  size_t size_ = 0;
};

// Moves `bytes` into a shared owner and returns its consecutive pieces of
// `piece` bytes (the last may be short), no copy. Each piece has its own
// refcount, so release_pieces can tell when nothing else holds one.
std::vector<SharedBytes> share_pieces(Buffer bytes, size_t piece);

// Drops `views`. A share_pieces piece that nothing else holds first
// returns its whole pages to the OS when its owner outlives the drop
// through other pieces: a buffer superseded piece by piece then pins only
// its live pieces' memory, while one superseded whole goes back to the
// pool with its pages committed, ready for reuse. Owners smaller than
// `dying_owners_below` bytes that die here return their pages too, for a
// caller whose next allocations are larger and would leave them resident
// in the pool's smaller bins.
void release_pieces(std::vector<SharedBytes>& views,
                    size_t dying_owners_below = 0);

// Returns a buffer of `size` deterministic pseudo-random bytes.
Buffer random_buffer(size_t size, Rng& rng);

// Hex dump of at most `max_bytes` (for diagnostics and examples).
std::string hex_dump(ConstByteSpan data, size_t max_bytes = 64);

// Splits `data` into `parts` contiguous equal pieces; size must divide evenly.
std::vector<ConstByteSpan> split_even(ConstByteSpan data, size_t parts);

// Concatenates spans into one buffer.
Buffer concat(const std::vector<ConstByteSpan>& pieces);

// FNV-1a 64-bit hash, used to fingerprint buffers in tests and examples.
uint64_t fingerprint(ConstByteSpan data);

// ---- Batched (position-major) stripe layout ------------------------------
//
// The batched codec paths pack B logical stripes into one buffer whose unit
// is the CELL: cell j holds stripe 0's j-th piece, then stripe 1's, ...,
// stripe B-1's, contiguously (B·cell_bytes per cell). Because the GF region
// kernels are bytewise, executing a plan over cells of B·chunk bytes is
// bit-identical to executing it B times over the individual stripes — these
// helpers convert between the two layouts for tests, benches, and callers
// that hold per-stripe data.

// Interleaves equal-sized stripes (each a whole number of `cell_bytes`
// pieces) into one batched buffer of stripes.size()·stripe_size bytes.
Buffer interleave_stripes(const std::vector<ConstByteSpan>& stripes,
                          size_t cell_bytes);

// Inverse of interleave_stripes: splits a batched buffer back into `batch`
// per-stripe buffers.
std::vector<Buffer> deinterleave_stripes(ConstByteSpan batched, size_t batch,
                                         size_t cell_bytes);

}  // namespace galloper
