#include "mr/framework.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace galloper::mr {

std::vector<KeyValue> shuffle_reduce(const Reducer& reducer,
                                     std::vector<KeyValue> intermediate) {
  // Group by key without sorting the whole intermediate. Keys and values
  // are moved out of the pairs — the intermediate is consumed.
  std::unordered_map<std::string, std::vector<std::string>> groups;
  groups.reserve(intermediate.size());
  for (auto& kv : intermediate)
    groups[std::move(kv.key)].push_back(std::move(kv.value));
  intermediate.clear();

  // Reduce in ascending key order with each key's values sorted — exactly
  // what a (key, value) sort of the whole intermediate would have fed the
  // reducer, so results are bit-identical to the historical form.
  std::vector<const std::string*> keys;
  keys.reserve(groups.size());
  for (const auto& [key, values] : groups) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  std::vector<KeyValue> out;
  for (const std::string* key : keys) {
    auto& values = groups[*key];
    if (!std::is_sorted(values.begin(), values.end()))
      std::sort(values.begin(), values.end());
    reducer.reduce(*key, values, out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Mapper::map(ConstByteSpan input, std::vector<KeyValue>& out) const {
  struct Collect final : Emitter {
    std::vector<KeyValue>& out;
    explicit Collect(std::vector<KeyValue>& o) : out(o) {}
    void emit(std::string_view key, std::string_view value) override {
      out.push_back({std::string(key), std::string(value)});
    }
  } collect(out);
  map(input, collect);
}

std::vector<KeyValue> LocalRunner::run(
    const core::InputFormat& fmt,
    const std::vector<ConstByteSpan>& blocks) const {
  GALLOPER_CHECK(blocks.size() >= 1);
  std::vector<KeyValue> intermediate;
  // One map task per split; a task sees only its split's original bytes.
  for (const auto& split : fmt.splits()) {
    GALLOPER_CHECK(split.block < blocks.size());
    GALLOPER_CHECK(split.block_offset + split.length <=
                   blocks[split.block].size());
    mapper_.map(
        blocks[split.block].subspan(split.block_offset, split.length),
        intermediate);
  }
  return shuffle_reduce(reducer_, std::move(intermediate));
}

std::vector<KeyValue> LocalRunner::run_plain(ConstByteSpan file) const {
  std::vector<KeyValue> intermediate;
  mapper_.map(file, intermediate);
  return shuffle_reduce(reducer_, std::move(intermediate));
}

}  // namespace galloper::mr
