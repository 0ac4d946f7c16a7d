#include "mr/terasort.h"

#include "util/check.h"

namespace galloper::mr {

Buffer generate_records(size_t bytes, Rng& rng) {
  GALLOPER_CHECK_MSG(bytes % kTeraRecordBytes == 0,
                     "input must be whole 100-byte records");
  Buffer out(bytes);
  rng.fill_bytes(out);
  // Make payload bytes printable-ish (irrelevant to the sort, but keeps
  // hexdumps in the examples readable).
  for (size_t i = 0; i < bytes; i += kTeraRecordBytes)
    for (size_t j = kTeraKeyBytes; j < kTeraRecordBytes; ++j)
      out[i + j] = static_cast<uint8_t>('a' + out[i + j] % 26);
  return out;
}

void TeraSortMapper::map(ConstByteSpan input, Emitter& out) const {
  GALLOPER_CHECK_MSG(input.size() % kTeraRecordBytes == 0,
                     "map input must align to whole records; got "
                         << input.size() << " bytes");
  static constexpr char kHex[] = "0123456789abcdef";
  char hex[2 * kTeraKeyBytes];
  for (size_t i = 0; i < input.size(); i += kTeraRecordBytes) {
    const uint8_t* record = input.data() + i;
    for (size_t j = 0; j < kTeraKeyBytes; ++j) {
      hex[2 * j] = kHex[record[j] >> 4];
      hex[2 * j + 1] = kHex[record[j] & 0xf];
    }
    out.emit({hex, sizeof hex},
             {reinterpret_cast<const char*>(record), kTeraRecordBytes});
  }
}

void TeraSortReducer::reduce(const std::string& key,
                             const std::vector<std::string>& values,
                             std::vector<KeyValue>& out) const {
  for (const auto& v : values) out.push_back({key, v});
}

bool terasort_output_valid(const std::vector<KeyValue>& output,
                           size_t records) {
  if (output.size() != records) return false;
  for (size_t i = 1; i < output.size(); ++i)
    if (output[i].key < output[i - 1].key) return false;
  return true;
}

WorkloadProfile terasort_profile() {
  WorkloadProfile p;
  p.name = "terasort";
  p.map_bytes_per_cpu_unit = 80e6;   // pass-through map
  p.shuffle_ratio = 1.0;             // every byte is shuffled
  p.reduce_bytes_per_cpu_unit = 30e6;  // the sort lives here
  return p;
}

}  // namespace galloper::mr
