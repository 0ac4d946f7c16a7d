#include "mr/framework.h"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace galloper::mr {

namespace {

// Key → its values, looked up by string_view so an emitted key is copied
// only the first time it appears.
struct KeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};
using Groups = std::unordered_map<std::string, std::vector<std::string>,
                                  KeyHash, std::equal_to<>>;

void add(Groups& groups, std::string_view key, std::string value) {
  auto it = groups.find(key);
  if (it == groups.end()) it = groups.try_emplace(std::string(key)).first;
  it->second.push_back(std::move(value));
}

// Reduces in ascending key order with each key's values sorted — exactly
// what a (key, value) sort of the whole intermediate would have fed the
// reducer, so results are bit-identical to the historical form.
std::vector<KeyValue> reduce_groups(const Reducer& reducer, Groups& groups) {
  std::vector<const std::string*> keys;
  keys.reserve(groups.size());
  for (const auto& [key, values] : groups) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  std::vector<KeyValue> out;
  for (const std::string* key : keys) {
    auto& values = groups.find(*key)->second;
    if (!std::is_sorted(values.begin(), values.end()))
      std::sort(values.begin(), values.end());
    reducer.reduce(*key, values, out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<KeyValue> shuffle_reduce(const Reducer& reducer,
                                     std::vector<KeyValue> intermediate) {
  // Group by key without sorting the whole intermediate. Keys and values
  // are moved out of the pairs — the intermediate is consumed.
  Groups groups;
  for (auto& kv : intermediate)
    groups.try_emplace(std::move(kv.key)).first->second.push_back(
        std::move(kv.value));
  intermediate = {};
  return reduce_groups(reducer, groups);
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
  // The mapper emits straight into the groups: no pair of the whole file
  // waits in an intermediate vector while they fill.
  struct Group final : Emitter {
    Groups& groups;
    explicit Group(Groups& g) : groups(g) {}
    void emit(std::string_view key, std::string_view value) override {
      add(groups, key, std::string(value));
    }
  };
  Groups groups;
  Group sink(groups);
  mapper_.map(file, sink);
  return reduce_groups(reducer_, groups);
}

}  // namespace galloper::mr
