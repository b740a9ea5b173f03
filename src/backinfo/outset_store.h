// Canonical storage for outsets (Section 5.2).
//
// An outset is a set of suspected outrefs (remote references). The paper's
// efficiency argument rests on two observations implemented here:
//   1. suspects with equal outsets share storage — the store interns every
//      set in canonical (sorted) form and hands out small ids;
//   2. unions are memoized — a hash table maps pairs of outset ids to the id
//      of their union, so repeating a union costs O(1).
//
// The store is scratch for one local trace, as in §5.2: the collector
// Clear()s it before each trace's suspect phase, so ids, memoized unions and
// stats describe that trace alone. Nothing keeps an OutsetId past the trace
// (the back information copies the canonical vectors). The three lookup
// tables are flat open-addressing ScratchTables, whose Clear() is O(1), and
// Clear() keeps the canonical vectors' storage for the next trace to
// overwrite, so a site's steady-state traces allocate nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "backinfo/scratch_table.h"
#include "common/check.h"
#include "common/ids.h"

namespace dgc {

class OutsetStore {
 public:
  using OutsetId = std::uint32_t;

  static constexpr OutsetId kEmpty = 0;

  OutsetStore() { sets_.emplace_back(); }  // id 0 = empty set

  /// Empties the store back to {empty set} and zeroes its stats, keeping
  /// every table's slots and every canonical vector's storage.
  void Clear();

  /// Pre-sizes the tables for roughly `expected_suspects` suspected
  /// inrefs so a trace-sized workload does not pay rehash churn. Outset
  /// counts and memoized unions both grow with the suspect count, so one
  /// hint sizes all three tables. Grow-only: a smaller hint than a table
  /// already holds never rehashes it down.
  void Reserve(std::size_t expected_suspects);

  /// Interns {ref} and returns its id.
  OutsetId Singleton(ObjectId ref);

  /// Returns the id of a ∪ b, memoized.
  OutsetId Union(OutsetId a, OutsetId b);

  /// Returns the id of a ∪ {ref}.
  OutsetId Add(OutsetId a, ObjectId ref) { return Union(a, Singleton(ref)); }

  /// The canonical (sorted, deduplicated) members of an outset.
  [[nodiscard]] const std::vector<ObjectId>& Get(OutsetId id) const {
    DGC_CHECK(id < count_);
    return sets_[id];
  }

  [[nodiscard]] std::size_t distinct_outsets() const { return count_; }

  /// Buckets of the union memo, the largest table (for tests).
  [[nodiscard]] std::size_t union_memo_buckets() const {
    return union_memo_.bucket_count();
  }

  struct Stats {
    std::uint64_t unions_requested = 0;
    std::uint64_t unions_memo_hits = 0;   // answered by the pair memo
    std::uint64_t unions_trivial = 0;     // empty/equal operands
    std::uint64_t unions_computed = 0;    // actually merged element-wise
    std::uint64_t interned_existing = 0;  // merge produced an existing set
    std::uint64_t stored_elements = 0;    // Σ |set| over distinct sets
    /// Bytes the id-keyed intern table avoids versus the old content-keyed
    /// map, which stored every canonical vector twice (as the map key and
    /// in sets_): the elements plus one vector header per distinct set.
    std::uint64_t intern_bytes_saved = 0;
    std::uint64_t union_memo_entries = 0;      // pairs memoized
    double union_memo_load_factor = 0.0;       // entries / buckets
  };
  /// Snapshot of the counters plus the current union-memo load.
  [[nodiscard]] Stats stats() const {
    Stats snapshot = stats_;
    snapshot.union_memo_entries = union_memo_.size();
    snapshot.union_memo_load_factor = union_memo_.load_factor();
    return snapshot;
  }

 private:
  static std::uint64_t HashContent(std::span<const ObjectId> v) noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL + v.size();
    for (const ObjectId& id : v) {
      h = detail::mix64(h ^ std::hash<ObjectId>{}(id));
    }
    return h;
  }

  /// Interns a canonical set, returning its id. The intern table is keyed
  /// by content hash and holds ids only; candidates are compared against
  /// the canonical vectors, so each set's content is stored once.
  OutsetId Intern(std::span<const ObjectId> canonical);

  /// Canonical vectors by id; only the first count_ are live. The rest are
  /// vectors from earlier traces kept for their storage.
  std::vector<std::vector<ObjectId>> sets_;
  std::size_t count_ = 1;
  std::vector<ObjectId> merged_;  // Union's merge buffer
  ScratchTable by_id_;       // content hash -> id
  ScratchTable singletons_;  // ObjectId hash -> id of {ref}
  ScratchTable union_memo_;  // (a << 32 | b) -> id of a ∪ b
  Stats stats_;
};

}  // namespace dgc
