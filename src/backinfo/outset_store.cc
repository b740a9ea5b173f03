#include "backinfo/outset_store.h"

#include <algorithm>

namespace dgc {

namespace {

// unordered_*::reserve(n) rehashes to fit n even when the table already has
// more buckets, so a small hint would shrink a table sized by an earlier,
// larger trace. Only ever grow.
template <typename Table>
void ReserveAtLeast(Table& table, std::size_t n) {
  if (static_cast<double>(n) >
      table.max_load_factor() * static_cast<double>(table.bucket_count())) {
    table.reserve(n);
  }
}

}  // namespace

void OutsetStore::Clear() {
  sets_.resize(1);  // id 0 = empty set
  by_id_.clear();
  by_id_.insert(kEmpty);
  singletons_.clear();
  union_memo_.clear();
  stats_ = Stats{};
}

void OutsetStore::Reserve(std::size_t expected_suspects) {
  if (expected_suspects == 0) return;
  sets_.reserve(sets_.size() + expected_suspects);
  ReserveAtLeast(by_id_, expected_suspects);
  ReserveAtLeast(singletons_, expected_suspects);
  // Each suspect contributes at most a handful of distinct pair-unions in
  // practice (shared subgraphs are memoized); 2x is a comfortable ceiling.
  ReserveAtLeast(union_memo_, 2 * expected_suspects);
}

OutsetStore::OutsetId OutsetStore::Singleton(ObjectId ref) {
  const auto it = singletons_.find(ref);
  if (it != singletons_.end()) return it->second;
  const OutsetId id = Intern({ref});
  singletons_.emplace(ref, id);
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
  const auto memo = union_memo_.find(key);
  if (memo != union_memo_.end()) {
    ++stats_.unions_memo_hits;
    return memo->second;
  }

  ++stats_.unions_computed;
  const std::vector<ObjectId>& va = Get(a);
  const std::vector<ObjectId>& vb = Get(b);
  std::vector<ObjectId> merged;
  merged.reserve(va.size() + vb.size());
  std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                 std::back_inserter(merged));
  const OutsetId id = Intern(std::move(merged));
  union_memo_.emplace(key, id);
  return id;
}

OutsetStore::OutsetId OutsetStore::Intern(std::vector<ObjectId> canonical) {
  DGC_DCHECK(std::is_sorted(canonical.begin(), canonical.end()));
  // Tentatively append the candidate so the id-keyed table can hash and
  // compare it in place; on a duplicate, drop the tentative slot again.
  const OutsetId tentative = static_cast<OutsetId>(sets_.size());
  sets_.push_back(std::move(canonical));
  const auto [it, inserted] = by_id_.insert(tentative);
  if (!inserted) {
    sets_.pop_back();
    ++stats_.interned_existing;
    stats_.intern_bytes_saved +=
        sets_[*it].size() * sizeof(ObjectId) + sizeof(std::vector<ObjectId>);
    return *it;
  }
  stats_.stored_elements += sets_[tentative].size();
  return tentative;
}

}  // namespace dgc
