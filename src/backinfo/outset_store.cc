#include "backinfo/outset_store.h"

#include <algorithm>

namespace dgc {

void OutsetStore::Clear() {
  count_ = 1;  // id 0 = empty set
  by_id_.Clear();
  singletons_.Clear();
  union_memo_.Clear();
  stats_ = Stats{};
}

void OutsetStore::Reserve(std::size_t expected_suspects) {
  if (expected_suspects == 0) return;
  sets_.reserve(count_ + expected_suspects);
  by_id_.Reserve(expected_suspects);
  singletons_.Reserve(expected_suspects);
  // Each suspect contributes at most a handful of distinct pair-unions in
  // practice (shared subgraphs are memoized); 2x is a comfortable ceiling.
  union_memo_.Reserve(2 * expected_suspects);
}

OutsetStore::OutsetId OutsetStore::Singleton(ObjectId ref) {
  const std::uint64_t key = std::hash<ObjectId>{}(ref);
  const OutsetId found = singletons_.Find(
      key, [&](OutsetId id) { return sets_[id].front() == ref; });
  if (found != ScratchTable::kAbsent) return found;
  const OutsetId id = Intern({&ref, 1});
  singletons_.Insert(key, id);
  return id;
}

OutsetStore::OutsetId OutsetStore::Union(OutsetId a, OutsetId b) {
  ++stats_.unions_requested;
  if (a == b || b == kEmpty) {
    ++stats_.unions_trivial;
    return a;
  }
  if (a == kEmpty) {
    ++stats_.unions_trivial;
    return b;
  }
  if (a > b) std::swap(a, b);
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  const OutsetId memo = union_memo_.Find(key);
  if (memo != ScratchTable::kAbsent) {
    ++stats_.unions_memo_hits;
    return memo;
  }

  ++stats_.unions_computed;
  const std::vector<ObjectId>& va = Get(a);
  const std::vector<ObjectId>& vb = Get(b);
  merged_.clear();
  std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                 std::back_inserter(merged_));
  const OutsetId id = Intern(merged_);
  union_memo_.Insert(key, id);
  return id;
}

OutsetStore::OutsetId OutsetStore::Intern(
    std::span<const ObjectId> canonical) {
  DGC_DCHECK(!canonical.empty());
  DGC_DCHECK(std::is_sorted(canonical.begin(), canonical.end()));
  const std::uint64_t hash = HashContent(canonical);
  const OutsetId existing = by_id_.Find(hash, [&](OutsetId id) {
    return std::ranges::equal(sets_[id], canonical);
  });
  if (existing != ScratchTable::kAbsent) {
    ++stats_.interned_existing;
    stats_.intern_bytes_saved +=
        canonical.size() * sizeof(ObjectId) + sizeof(std::vector<ObjectId>);
    return existing;
  }
  const auto id = static_cast<OutsetId>(count_++);
  if (sets_.size() < count_) sets_.emplace_back();
  sets_[id].assign(canonical.begin(), canonical.end());
  by_id_.Insert(hash, id);
  stats_.stored_elements += canonical.size();
  return id;
}

}  // namespace dgc
