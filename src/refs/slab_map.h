// SlabMap: the ref tables' ordered map — a sorted (key, slot) index over a
// slab of entries that never move on insert or erase.
//
// FlatMap keeps whole entries in one sorted vector, so every structural
// insert or erase shifts the entries behind it. A ref-table entry is about
// 100 bytes and hub sites hold hundreds to a thousand of them, so under
// write-heavy churn those shifts dominated table time. Here the sorted part
// is only the index — one small (key, slot) pair per entry — and the entries
// sit in slab slots: an erase frees its slot onto a free list, an insert
// takes a freed slot before it grows the slab.
//
// It keeps the surface and guarantees the ref tables relied on from FlatMap:
//
//   * iteration visits entries in key order (std::map's order), yielding
//     std::pair<Key, T>& so structured bindings read as before;
//   * erase_if visits every entry once, in key order, with mutable access,
//     and removes the matches in one linear pass;
//   * stats() counts inserts absorbed by spare slots (reuses) and inserts
//     that reallocated the slab (grows). A reallocation happens exactly when
//     the live count reaches capacity, as with FlatMap, so the counters read
//     the same for the same operation sequence.
//
// Pointer discipline: an insert may reallocate the slab and so invalidates
// every reference and entry pointer into the map; an erase invalidates only
// the erased entry's. Any insert or erase invalidates iterators.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_map.h"

namespace dgc {

template <typename Key, typename T>
class SlabMap {
  struct IndexEntry {
    Key key;
    std::uint32_t slot;
  };

 public:
  using value_type = std::pair<Key, T>;

  template <bool kConst>
  class Iterator {
    using Index = std::conditional_t<kConst, const IndexEntry, IndexEntry>;
    using Entry = std::pair<Key, T>;
    using Value = std::conditional_t<kConst, const Entry, Entry>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = Value*;
    using reference = Value&;

    Iterator() = default;
    Iterator(Index* position, Value* slab) : position_(position), slab_(slab) {}

    reference operator*() const { return slab_[position_->slot]; }
    pointer operator->() const { return &slab_[position_->slot]; }
    Iterator& operator++() {
      ++position_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++position_;
      return before;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.position_ == b.position_;
    }

   private:
    friend class SlabMap;
    Index* position_ = nullptr;
    Value* slab_ = nullptr;
  };
  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  [[nodiscard]] iterator begin() { return At(index_.data()); }
  [[nodiscard]] iterator end() { return At(index_.data() + index_.size()); }
  [[nodiscard]] const_iterator begin() const { return At(index_.data()); }
  [[nodiscard]] const_iterator end() const {
    return At(index_.data() + index_.size());
  }

  [[nodiscard]] bool empty() const { return index_.empty(); }
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  /// Allocated entry slots (the slab's capacity).
  [[nodiscard]] std::size_t capacity() const { return slab_.capacity(); }

  [[nodiscard]] iterator find(const Key& key) {
    IndexEntry* position = index_.data() + (LowerBound(key) - index_.data());
    return Matches(position, key) ? At(position) : end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    const IndexEntry* position = LowerBound(key);
    return Matches(position, key) ? At(position) : end();
  }

  /// Inserts T(args...) under `key` if absent; like std::map, an existing
  /// entry is left untouched.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    const IndexEntry* position = LowerBound(key);
    const auto offset = position - index_.data();
    if (Matches(position, key)) return {At(index_.data() + offset), false};
    ++stats_.inserts;
    std::uint32_t slot;
    if (!free_.empty()) {
      ++stats_.reuses;
      slot = free_.back();
      free_.pop_back();
      slab_[slot].first = key;
      slab_[slot].second = T(std::forward<Args>(args)...);
    } else {
      if (slab_.size() < slab_.capacity()) {
        ++stats_.reuses;
      } else {
        ++stats_.grows;
      }
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                         std::forward_as_tuple(std::forward<Args>(args)...));
      // The index never outgrows the slab: sizing it with the slab keeps
      // every later insert that finds a free slot allocation-free.
      index_.reserve(slab_.capacity());
    }
    index_.insert(index_.begin() + offset, IndexEntry{key, slot});
    return {At(index_.data() + offset), true};
  }

  std::size_t erase(const Key& key) {
    const iterator it = find(key);
    if (it == end()) return 0;
    erase(it);
    return 1;
  }
  void erase(iterator it) {
    DGC_CHECK(it != end());
    Free(it.position_->slot);
    index_.erase(index_.begin() + (it.position_ - index_.data()));
  }

  /// Calls pred(entry) on every entry once, in key order, and removes those
  /// it returns true for in one linear pass; pred may update the mapped
  /// value of an entry it keeps. Returns the count removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    auto kept = index_.begin();
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (pred(slab_[it->slot])) {
        Free(it->slot);
        continue;
      }
      *kept++ = *it;
    }
    const auto removed = static_cast<std::size_t>(index_.end() - kept);
    index_.erase(kept, index_.end());
    return removed;
  }

  [[nodiscard]] const FlatMapStats& stats() const { return stats_; }

 private:
  [[nodiscard]] iterator At(IndexEntry* position) {
    return iterator(position, slab_.data());
  }
  [[nodiscard]] const_iterator At(const IndexEntry* position) const {
    return const_iterator(position, slab_.data());
  }

  [[nodiscard]] const IndexEntry* LowerBound(const Key& key) const {
    return std::lower_bound(
        index_.data(), index_.data() + index_.size(), key,
        [](const IndexEntry& entry, const Key& k) { return entry.key < k; });
  }
  [[nodiscard]] bool Matches(const IndexEntry* position, const Key& key) const {
    return position != index_.data() + index_.size() && position->key == key;
  }

  /// Returns a slot to the free list, releasing what its entry held.
  void Free(std::uint32_t slot) {
    ++stats_.erases;
    slab_[slot].second = T();
    free_.push_back(slot);
  }

  std::vector<IndexEntry> index_;  // sorted by key
  std::vector<value_type> slab_;   // entries by slot; never shifted
  std::vector<std::uint32_t> free_;
  FlatMapStats stats_;
};

}  // namespace dgc
