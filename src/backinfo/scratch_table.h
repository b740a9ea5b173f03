// ScratchTable: an open-addressing hash table from 64-bit keys to 32-bit
// values, made for per-trace scratch (OutsetStore's three tables).
//
// A node-based std::unordered_map allocates one node per entry and its
// clear() walks every node and every bucket, used or not, so a store that
// is cleared before each local trace pays allocator and cold-memory time
// for tables it rebuilds anyway. Here the slots are one flat array with
// linear probing, and each slot carries the epoch it was written in: a slot
// is occupied only if its epoch is the table's current one. Clear() bumps
// the epoch, which empties the table without touching a slot, and keeps
// the array, so a steady state of equal-sized traces allocates nothing.
//
// Keys need not be unique: Find takes a match predicate over the stored
// value, so a key may be a content hash whose candidates the caller checks
// (the intern table does this). There is no erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/ids.h"

namespace dgc {

class ScratchTable {
 public:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  /// The first value stored under `key` for which match(value) holds, or
  /// kAbsent.
  template <typename Match>
  [[nodiscard]] std::uint32_t Find(std::uint64_t key, Match match) const {
    if (slots_.empty()) return kAbsent;
    for (std::size_t i = Home(key);; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return kAbsent;
      if (slot.key == key && match(slot.value)) return slot.value;
    }
  }
  [[nodiscard]] std::uint32_t Find(std::uint64_t key) const {
    return Find(key, [](std::uint32_t) { return true; });
  }

  /// Adds (key, value); the caller has checked it is not already present.
  void Insert(std::uint64_t key, std::uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) Rehash(2 * (size_ + 1));
    Place(key, value);
  }

  /// Empties the table in O(1), keeping its slots.
  void Clear() {
    size_ = 0;
    if (++epoch_ == 0) {
      // The epoch wrapped: stale slots would read as current again.
      for (Slot& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  /// Grows the table to hold `n` entries without rehashing. Grow-only: a
  /// smaller hint never shrinks it.
  void Reserve(std::size_t n) {
    if (2 * n > slots_.size()) Rehash(2 * n);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t bucket_count() const { return slots_.size(); }
  [[nodiscard]] double load_factor() const {
    return slots_.empty() ? 0.0
                          : static_cast<double>(size_) /
                                static_cast<double>(slots_.size());
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
    std::uint32_t epoch = 0;  // occupied iff equal to the table's epoch_
  };

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>(detail::mix64(key)) & mask();
  }

  void Place(std::uint64_t key, std::uint32_t value) {
    std::size_t i = Home(key);
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask();
    slots_[i] = Slot{key, value, epoch_};
    ++size_;
  }

  /// Reallocates to the smallest power of two >= max(min_slots, 16) and
  /// re-places the current entries.
  void Rehash(std::size_t min_slots) {
    std::size_t count = 16;
    while (count < min_slots) count *= 2;
    std::vector<Slot> old(count);
    old.swap(slots_);
    const std::uint32_t old_epoch = epoch_;
    epoch_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.epoch == old_epoch) Place(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;  // size 0 or a power of two
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;
};

}  // namespace dgc
