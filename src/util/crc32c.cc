#include "util/crc32c.h"

#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace galloper {

namespace {

constexpr uint32_t kPolyReflected = 0x82f63b78u;  // 0x1EDC6F41 reflected

constexpr std::array<uint32_t, 256> build_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? kPolyReflected : 0);
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = build_table();

// Slicing-by-8: kSlice[k][b] is byte b's contribution to the register once
// k more bytes have followed it (kSlice[0] is kTable), so one word of eight
// bytes folds in with eight independent lookups instead of eight chained
// ones.
constexpr std::array<std::array<uint32_t, 256>, 8> build_slices() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  t[0] = kTable;
  for (size_t k = 1; k < 8; ++k)
    for (size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ kTable[t[k - 1][b] & 0xff];
  return t;
}

constexpr auto kSlice = build_slices();

uint32_t scalar_extend(uint32_t state, ConstByteSpan data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    if constexpr (std::endian::native == std::endian::big)
      word = __builtin_bswap64(word);
    word ^= state;
    state = kSlice[7][word & 0xff] ^ kSlice[6][(word >> 8) & 0xff] ^
            kSlice[5][(word >> 16) & 0xff] ^ kSlice[4][(word >> 24) & 0xff] ^
            kSlice[3][(word >> 32) & 0xff] ^ kSlice[2][(word >> 40) & 0xff] ^
            kSlice[1][(word >> 48) & 0xff] ^ kSlice[0][word >> 56];
  }
  for (; n > 0; ++p, --n) state = kTable[(state ^ *p) & 0xff] ^ (state >> 8);
  return state;
}

#if defined(__x86_64__)

// The linear operator "append n zero bytes" on the raw CRC register, as
// four byte-indexed tables: shift(t, crc) is the register after crc meets n
// zeros. Built by squaring the one-byte operator log2(n) times.
using ShiftTables = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTables build_shift(size_t n) {  // n a power of two
  std::array<uint32_t, 32> op{};  // image of each basis bit
  for (int i = 0; i < 32; ++i)
    op[i] = kTable[(1u << i) & 0xff] ^ ((1u << i) >> 8);
  auto apply = [](const std::array<uint32_t, 32>& m, uint32_t v) {
    uint32_t r = 0;
    for (int i = 0; v != 0; ++i, v >>= 1)
      if (v & 1) r ^= m[i];
    return r;
  };
  for (size_t len = 1; len < n; len *= 2) {
    std::array<uint32_t, 32> sq{};
    for (int i = 0; i < 32; ++i) sq[i] = apply(op, op[i]);
    op = sq;
  }
  ShiftTables t{};
  for (uint32_t k = 0; k < 4; ++k)
    for (uint32_t b = 0; b < 256; ++b) t[k][b] = apply(op, b << (8 * k));
  return t;
}

constexpr size_t kLongLane = 8192;
constexpr size_t kShortLane = 256;
constexpr ShiftTables kShiftLong = build_shift(kLongLane);
constexpr ShiftTables kShiftShort = build_shift(kShortLane);

inline uint64_t shift(const ShiftTables& t, uint64_t crc) {
  return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
         t[2][(crc >> 16) & 0xff] ^ t[3][(crc >> 24) & 0xff];
}

__attribute__((target("sse4.2"))) inline uint64_t load_crc(uint64_t crc,
                                                           const uint8_t* p) {
  uint64_t word;  // memcpy: an unaligned load folded into a plain mov
  std::memcpy(&word, p, 8);
  return _mm_crc32_u64(crc, word);
}

// While 3 lanes of `lane` bytes remain, runs three independent crc32q
// chains (the instruction's 3-cycle latency hides behind the other two),
// lanes 1 and 2 from 0, then folds them into lane 0 by shifting it over
// the next lane's length: the register is linear in (state, data).
__attribute__((target("sse4.2"))) inline uint64_t three_lanes(
    uint64_t crc, const uint8_t*& p, size_t& n, size_t lane,
    const ShiftTables& t) {
  for (; n >= 3 * lane; n -= 3 * lane, p += 2 * lane) {
    uint64_t c1 = 0, c2 = 0;
    for (const uint8_t* end = p + lane; p < end; p += 8) {
      crc = load_crc(crc, p);
      c1 = load_crc(c1, p + lane);
      c2 = load_crc(c2, p + 2 * lane);
    }
    crc = shift(t, crc) ^ c1;
    crc = shift(t, crc) ^ c2;
  }
  return crc;
}

// The SSE4.2 CRC32 instruction computes exactly this reflected-Castagnoli
// form, 8 bytes per instruction: three lanes of 8 KiB, then of 256 B, then
// one chain over the < 768 bytes left and a byte tail.
__attribute__((target("sse4.2"))) uint32_t sse42_extend(uint32_t state,
                                                        ConstByteSpan data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = three_lanes(state, p, n, kLongLane, kShiftLong);
  crc = three_lanes(crc, p, n, kShortLane, kShiftShort);
  for (; n >= 8; n -= 8, p += 8) crc = load_crc(crc, p);
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n--) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32;
}

#endif  // __x86_64__

using ExtendFn = uint32_t (*)(uint32_t, ConstByteSpan);

struct Backend {
  ExtendFn fn;
  const char* name;
};

Backend pick_backend() {
  // GALLOPER_CRC32C=scalar forces the table-driven path (the SIMD-equivalence
  // test uses it as its reference).
  const char* force = std::getenv("GALLOPER_CRC32C");
  const bool want_scalar = force && std::strcmp(force, "scalar") == 0;
#if defined(__x86_64__)
  if (!want_scalar && __builtin_cpu_supports("sse4.2"))
    return {sse42_extend, "sse4.2"};
#endif
  (void)want_scalar;
  return {scalar_extend, "scalar"};
}

const Backend& backend() {
  static const Backend b = pick_backend();
  return b;
}

}  // namespace

uint32_t crc32c_extend(uint32_t state, ConstByteSpan data) {
  return backend().fn(state, data);
}

uint32_t crc32c(ConstByteSpan data) {
  return crc32c_finish(crc32c_extend(kCrc32cInit, data));
}

const char* crc32c_backend() { return backend().name; }

}  // namespace galloper
