#include "util/bytes.h"

#include <algorithm>

#if defined(__unix__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "util/check.h"

namespace galloper {

namespace {

// The deleter of a share_pieces piece: holds the owner for the piece.
struct PieceOwner {
  std::shared_ptr<const Buffer> owner;
  void operator()(const uint8_t*) const {}
};

}  // namespace

void release_pieces(std::vector<SharedBytes>& views,
                    size_t dying_owners_below) {
#if defined(__unix__)
  // The pieces nothing else holds (no one can copy one any more), each
  // with its owner, held here so no concurrent drop frees and reuses the
  // owner under the madvise. Sorted by address, an owner's pieces are
  // consecutive.
  std::vector<std::pair<std::shared_ptr<const Buffer>, ConstByteSpan>> dead;
  for (const SharedBytes& v : views)
    if (const auto* p = std::get_deleter<PieceOwner>(v.data_);
        p != nullptr && v.data_.use_count() == 1)
      dead.emplace_back(p->owner, *v);
  views.clear();
  std::sort(dead.begin(), dead.end(), [](const auto& a, const auto& b) {
    return a.second.data() < b.second.data();
  });
  static const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  for (size_t i = 0, k = 0; i < dead.size(); i = k) {
    for (k = i; k < dead.size() && dead[k].first == dead[i].first; ++k) {
    }
    // Each live piece holds one owner reference, as does each entry here.
    if (dead[i].first.use_count() <= static_cast<long>(k - i) &&
        dead[i].first->size() >= dying_owners_below)
      continue;
    // Adjacent pieces (a stripe's segments) go in one call; pages shared
    // with a live piece stay. The pages read as zero from here on, and
    // the owner's later reuse refaults them.
    for (size_t r = i, e; r < k; r = e) {
      for (e = r + 1; e < k && dead[e].second.data() ==
                                   dead[e - 1].second.data() +
                                       dead[e - 1].second.size();
           ++e) {
      }
      const uintptr_t lo =
          (reinterpret_cast<uintptr_t>(dead[r].second.data()) + page - 1) &
          ~(page - 1);
      const uintptr_t hi = reinterpret_cast<uintptr_t>(
                               dead[e - 1].second.data() +
                               dead[e - 1].second.size()) &
                           ~(page - 1);
      if (lo < hi) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
    }
  }
#else
  (void)dying_owners_below;
  views.clear();
#endif
}

std::vector<SharedBytes> share_pieces(Buffer bytes, size_t piece) {
  GALLOPER_CHECK(piece > 0);
  const auto owner = std::make_shared<const Buffer>(std::move(bytes));
  std::vector<SharedBytes> out;
  out.reserve((owner->size() + piece - 1) / piece);
  for (size_t at = 0; at < owner->size(); at += piece) {
    const size_t len = std::min(piece, owner->size() - at);
    out.emplace_back(std::shared_ptr<const uint8_t>(owner->data() + at,
                                                    PieceOwner{owner}),
                     len);
  }
  return out;
}

Buffer random_buffer(size_t size, Rng& rng) {
  Buffer b(size);
  rng.fill_bytes(b);
  return b;
}

std::string hex_dump(ConstByteSpan data, size_t max_bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  const size_t n = std::min(data.size(), max_bytes);
  out.reserve(n * 3);
  for (size_t i = 0; i < n; ++i) {
    if (i) out.push_back(i % 16 == 0 ? '\n' : ' ');
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  if (data.size() > max_bytes) out += " …";
  return out;
}

std::vector<ConstByteSpan> split_even(ConstByteSpan data, size_t parts) {
  GALLOPER_CHECK(parts > 0);
  GALLOPER_CHECK_MSG(data.size() % parts == 0,
                     "size " << data.size() << " not divisible by " << parts);
  const size_t piece = data.size() / parts;
  std::vector<ConstByteSpan> out;
  out.reserve(parts);
  for (size_t i = 0; i < parts; ++i)
    out.push_back(data.subspan(i * piece, piece));
  return out;
}

Buffer concat(const std::vector<ConstByteSpan>& pieces) {
  size_t total = 0;
  for (const auto& p : pieces) total += p.size();
  Buffer out;
  out.reserve(total);
  for (const auto& p : pieces) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Buffer interleave_stripes(const std::vector<ConstByteSpan>& stripes,
                          size_t cell_bytes) {
  GALLOPER_CHECK(!stripes.empty() && cell_bytes > 0);
  const size_t stripe_size = stripes[0].size();
  GALLOPER_CHECK_MSG(stripe_size % cell_bytes == 0,
                     "stripe size " << stripe_size
                                    << " not a whole number of cells");
  const size_t cells = stripe_size / cell_bytes;
  const size_t batch = stripes.size();
  for (const auto& s : stripes)
    GALLOPER_CHECK_MSG(s.size() == stripe_size, "stripes of unequal size");
  Buffer out(batch * stripe_size);
  for (size_t j = 0; j < cells; ++j)
    for (size_t i = 0; i < batch; ++i)
      std::copy_n(stripes[i].data() + j * cell_bytes, cell_bytes,
                  out.data() + (j * batch + i) * cell_bytes);
  return out;
}

std::vector<Buffer> deinterleave_stripes(ConstByteSpan batched, size_t batch,
                                         size_t cell_bytes) {
  GALLOPER_CHECK(batch > 0 && cell_bytes > 0);
  GALLOPER_CHECK_MSG(batched.size() % (batch * cell_bytes) == 0,
                     "batched size " << batched.size()
                                     << " not a whole number of "
                                     << batch << "-stripe cells");
  const size_t cells = batched.size() / (batch * cell_bytes);
  std::vector<Buffer> out;
  out.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    Buffer stripe(cells * cell_bytes);
    for (size_t j = 0; j < cells; ++j)
      std::copy_n(batched.data() + (j * batch + i) * cell_bytes, cell_bytes,
                  stripe.data() + j * cell_bytes);
    out.push_back(std::move(stripe));
  }
  return out;
}

uint64_t fingerprint(ConstByteSpan data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace galloper
