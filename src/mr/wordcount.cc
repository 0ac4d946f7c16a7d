#include "mr/wordcount.h"

#include <array>

#include "util/check.h"

namespace galloper::mr {

namespace {

// A small vocabulary with Zipf-ish frequencies (rank r picked with
// probability ∝ 1/(r+1)).
constexpr std::array<const char*, 24> kVocabulary = {
    "the",  "of",    "and",   "to",      "data",  "block",  "code",
    "server", "disk", "node",  "read",   "write", "parity", "repair",
    "store",  "job",  "task",  "map",    "file",  "byte",   "rack",
    "fail",   "sync", "cache"};

}  // namespace

Buffer generate_text(size_t bytes, Rng& rng) {
  GALLOPER_CHECK_MSG(bytes % kWordCountRecordBytes == 0,
                     "text size must be a multiple of the record size");
  // Cumulative Zipf weights.
  std::array<double, kVocabulary.size()> cum{};
  double total = 0;
  for (size_t r = 0; r < kVocabulary.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cum[r] = total;
  }

  Buffer out;
  out.reserve(bytes);
  std::string record;
  while (out.size() < bytes) {
    record.clear();
    // Fill one record with words, then pad with spaces.
    for (;;) {
      const double u = rng.next_double() * total;
      size_t r = 0;
      while (cum[r] < u) ++r;
      const std::string_view word = kVocabulary[r];
      if (record.size() + word.size() + 1 > kWordCountRecordBytes) break;
      record.append(word);
      record.push_back(' ');
    }
    record.resize(kWordCountRecordBytes, ' ');
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

void WordCountMapper::map(ConstByteSpan input, Emitter& out) const {
  const char* text = reinterpret_cast<const char*>(input.data());
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i < input.size() && text[i] != ' ' && text[i] != '\n' &&
        text[i] != '\t')
      continue;
    if (i > start) out.emit({text + start, i - start}, "1");
    start = i + 1;
  }
}

void WordCountReducer::reduce(const std::string& key,
                              const std::vector<std::string>& values,
                              std::vector<KeyValue>& out) const {
  uint64_t count = 0;
  for (const auto& v : values) count += std::stoull(v);
  out.push_back({key, std::to_string(count)});
}

WorkloadProfile wordcount_profile() {
  WorkloadProfile p;
  p.name = "wordcount";
  p.map_bytes_per_cpu_unit = 25e6;    // tokenizing is CPU-bound
  p.shuffle_ratio = 0.05;             // per-task partial counts
  p.reduce_bytes_per_cpu_unit = 50e6;
  return p;
}

}  // namespace galloper::mr
