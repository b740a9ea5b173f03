// FlatMap: a sorted-vector map with the std::map surface the hot paths use.
//
// The inrefs' source lists, the site's root/ack books, and the network's
// per-channel state are small keyed lookups, read and iterated far more often
// than structurally mutated. std::map pays a node allocation per entry
// and a pointer chase per comparison; at 10^6 objects those dominate the
// per-mutation profile. A sorted std::vector keeps the same ordered,
// deterministic iteration (so verdict and sweep order are bit-identical to
// the std::map code) while lookups become cache-friendly binary searches and
// iteration a linear scan.
//
// Deliberate differences from std::map, which every call site must respect:
//
//   * insert/erase invalidate ALL iterators, references, and entry pointers
//     into the map (vector reallocation / element shifting). Callers may
//     hold a pointer only across non-structural mutations — the same
//     discipline the OutsetMap of PR 3 established;
//   * value_type is std::pair<Key, T> (non-const Key): structured bindings
//     and `it->first` read identically, but writing the key of a live entry
//     is undefined — nothing in this codebase does;
//   * erase(key) and erase(iterator) are O(n) shifts, insert is O(n) —
//     acceptable because the tables see ~2 structural ops per mutation
//     against thousands of lookups, and n is the *active* entry count.
//
// Spare-capacity accounting: the map never shrinks its vector, so steady
// state churn (insert/erase cycles under workload) is served from already-
// allocated slots. `stats().reuses` counts inserts absorbed by spare
// capacity and `stats().grows` counts reallocations — the observable that
// tells a scale run its tables stopped allocating.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dgc {

struct FlatMapStats {
  std::uint64_t inserts = 0;  // structural insertions
  std::uint64_t erases = 0;   // structural removals
  std::uint64_t reuses = 0;   // inserts absorbed by spare capacity
  std::uint64_t grows = 0;    // inserts that reallocated the vector
};

template <typename Key, typename T, typename Compare = std::less<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, T>;
  using storage_type = std::vector<value_type>;
  using iterator = typename storage_type::iterator;
  using const_iterator = typename storage_type::const_iterator;

  FlatMap() = default;

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  [[nodiscard]] const_iterator cbegin() const { return entries_.cbegin(); }
  [[nodiscard]] const_iterator cend() const { return entries_.cend(); }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return entries_.capacity(); }
  void reserve(std::size_t n) { entries_.reserve(n); }
  void clear() { entries_.clear(); }

  [[nodiscard]] iterator lower_bound(const Key& key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            KeyLess{Compare{}});
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            KeyLess{Compare{}});
  }

  [[nodiscard]] iterator find(const Key& key) {
    const iterator it = lower_bound(key);
    return it != entries_.end() && KeysEqual(it->first, key) ? it
                                                             : entries_.end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    const const_iterator it = lower_bound(key);
    return it != entries_.end() && KeysEqual(it->first, key) ? it
                                                             : entries_.end();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != entries_.end();
  }
  [[nodiscard]] std::size_t count(const Key& key) const {
    return contains(key) ? 1 : 0;
  }

  [[nodiscard]] T& at(const Key& key) {
    const iterator it = find(key);
    DGC_CHECK_MSG(it != entries_.end(), "FlatMap::at: key not found");
    return it->second;
  }
  [[nodiscard]] const T& at(const Key& key) const {
    const const_iterator it = find(key);
    DGC_CHECK_MSG(it != entries_.end(), "FlatMap::at: key not found");
    return it->second;
  }

  /// Inserts default-constructed-from-args if absent; like std::map, the
  /// mapped value is untouched when the key already exists.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    iterator it = lower_bound(key);
    if (it != entries_.end() && KeysEqual(it->first, key)) return {it, false};
    it = Insert(it, value_type(std::piecewise_construct,
                               std::forward_as_tuple(key),
                               std::forward_as_tuple(
                                   std::forward<Args>(args)...)));
    return {it, true};
  }

  /// std::map::emplace for the (key, value) shape used in this codebase.
  template <typename K, typename V>
  std::pair<iterator, bool> emplace(K&& key, V&& value) {
    const Key k(std::forward<K>(key));
    iterator it = lower_bound(k);
    if (it != entries_.end() && KeysEqual(it->first, k)) return {it, false};
    it = Insert(it, value_type(k, T(std::forward<V>(value))));
    return {it, true};
  }

  T& operator[](const Key& key) { return try_emplace(key).first->second; }

  std::size_t erase(const Key& key) {
    const iterator it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    ++stats_.erases;
    return 1;
  }
  iterator erase(const_iterator it) {
    ++stats_.erases;
    return entries_.erase(it);
  }

  /// Removes every entry matching the predicate in one linear pass (the
  /// iterator-erase loop would be quadratic). The predicate sees every entry
  /// once, in key order, and may update the mapped value of an entry it
  /// keeps. Returns the count removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    auto kept = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (pred(*it)) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    const auto removed = static_cast<std::size_t>(entries_.end() - kept);
    entries_.erase(kept, entries_.end());
    stats_.erases += removed;
    return removed;
  }

  [[nodiscard]] const FlatMapStats& stats() const { return stats_; }

 private:
  struct KeyLess {
    Compare compare;
    bool operator()(const value_type& entry, const Key& key) const {
      return compare(entry.first, key);
    }
  };
  [[nodiscard]] static bool KeysEqual(const Key& a, const Key& b) {
    const Compare compare{};
    return !compare(a, b) && !compare(b, a);
  }

  iterator Insert(iterator position, value_type&& entry) {
    ++stats_.inserts;
    if (entries_.size() < entries_.capacity()) {
      ++stats_.reuses;
    } else {
      ++stats_.grows;
    }
    return entries_.insert(position, std::move(entry));
  }

  storage_type entries_;
  FlatMapStats stats_;
};

}  // namespace dgc
