// Unit tests for the inref/outref tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "refs/slab_map.h"
#include "refs/tables.h"

namespace dgc {
namespace {

class RefTablesTest : public ::testing::Test {
 protected:
  CollectorConfig config_;
  RefTables tables_{/*site=*/1, config_};
  const ObjectId local_{1, 10};
  const ObjectId remote_{2, 20};
};

TEST_F(RefTablesTest, EnsureInrefCreatesWithConfiguredThreshold) {
  InrefEntry& entry = tables_.EnsureInref(local_);
  EXPECT_EQ(entry.back_threshold, config_.initial_back_threshold());
  EXPECT_TRUE(entry.sources.empty());
  EXPECT_EQ(entry.distance(), kDistanceInfinity);
}

TEST_F(RefTablesTest, InrefMustBeLocal) {
  EXPECT_THROW(tables_.EnsureInref(remote_), InvariantViolation);
}

TEST_F(RefTablesTest, AddSourceTracksDistanceMinimum) {
  tables_.AddInrefSource(local_, 2, 5);
  tables_.AddInrefSource(local_, 3, 2);
  const InrefEntry* entry = tables_.FindInref(local_);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->distance(), 2u);
  tables_.AddInrefSource(local_, 3, 9);  // update overwrites
  EXPECT_EQ(entry->distance(), 5u);
}

TEST_F(RefTablesTest, OwnSiteCannotBeSource) {
  EXPECT_THROW(tables_.AddInrefSource(local_, 1, 1), InvariantViolation);
}

TEST_F(RefTablesTest, RemoveLastSourceRemovesEntry) {
  tables_.AddInrefSource(local_, 2, 1);
  tables_.AddInrefSource(local_, 3, 1);
  EXPECT_FALSE(tables_.RemoveInrefSource(local_, 2));
  EXPECT_NE(tables_.FindInref(local_), nullptr);
  EXPECT_TRUE(tables_.RemoveInrefSource(local_, 3));
  EXPECT_EQ(tables_.FindInref(local_), nullptr);
}

TEST_F(RefTablesTest, RemoveSourceOfMissingInrefIsNoop) {
  EXPECT_FALSE(tables_.RemoveInrefSource(local_, 2));
}

TEST_F(RefTablesTest, InrefCleanlinessFollowsDistanceThreshold) {
  config_.suspicion_threshold = 3;
  InrefEntry& entry = tables_.AddInrefSource(local_, 2, 3);
  EXPECT_TRUE(entry.clean(3));
  entry.sources[2] = SourceInfo{4, 0};
  EXPECT_FALSE(entry.clean(3));
  entry.clean_override = true;  // transfer barrier
  EXPECT_TRUE(entry.clean(3));
  entry.garbage_flagged = true;  // condemned wins over everything
  EXPECT_FALSE(entry.clean(3));
}

TEST_F(RefTablesTest, OutrefCleanlinessSources) {
  auto [entry, created] = tables_.EnsureOutref(remote_);
  EXPECT_TRUE(created);
  EXPECT_FALSE(entry->clean());
  entry->traced_clean = true;
  EXPECT_TRUE(entry->clean());
  entry->traced_clean = false;
  entry->clean_override = true;
  EXPECT_TRUE(entry->clean());
  entry->clean_override = false;
  entry->pin_count = 1;
  EXPECT_TRUE(entry->clean());
}

TEST_F(RefTablesTest, OutrefMustBeRemote) {
  EXPECT_THROW(tables_.EnsureOutref(local_), InvariantViolation);
}

TEST_F(RefTablesTest, EnsureOutrefIdempotent) {
  auto [first, created1] = tables_.EnsureOutref(remote_);
  auto [second, created2] = tables_.EnsureOutref(remote_);
  EXPECT_TRUE(created1);
  EXPECT_FALSE(created2);
  EXPECT_EQ(first, second);
}

TEST_F(RefTablesTest, RemovingPinnedOutrefThrows) {
  auto [entry, created] = tables_.EnsureOutref(remote_);
  (void)created;
  entry->pin_count = 1;
  EXPECT_THROW(tables_.RemoveOutref(remote_), InvariantViolation);
  entry->pin_count = 0;
  EXPECT_NO_THROW(tables_.RemoveOutref(remote_));
  EXPECT_EQ(tables_.FindOutref(remote_), nullptr);
}

TEST_F(RefTablesTest, VisitedMarksPerTrace) {
  InrefEntry& entry = tables_.EnsureInref(local_);
  const TraceId t1{0, 1}, t2{0, 2};
  EXPECT_FALSE(entry.IsVisitedBy(t1));
  entry.MarkVisited(t1);
  EXPECT_TRUE(entry.IsVisitedBy(t1));
  EXPECT_FALSE(entry.IsVisitedBy(t2));
  entry.MarkVisited(t2);
  entry.ClearVisited(t1);
  EXPECT_FALSE(entry.IsVisitedBy(t1));
  EXPECT_TRUE(entry.IsVisitedBy(t2));
}

TEST_F(RefTablesTest, TablesIterateInDeterministicOrder) {
  tables_.EnsureOutref(ObjectId{3, 5});
  tables_.EnsureOutref(ObjectId{2, 9});
  tables_.EnsureOutref(ObjectId{2, 1});
  ObjectId previous{};
  bool first = true;
  for (const auto& [ref, entry] : tables_.outrefs()) {
    (void)entry;
    if (!first) EXPECT_LT(previous, ref);
    previous = ref;
    first = false;
  }
}

// The ref tables' SlabMap against std::map under random insert, erase,
// erase_if and find: same contents in the same order after every step,
// erase_if visiting each entry once in key order, and the slot counters
// accounting every insert as a reuse or a grow exactly when the slab had or
// lacked a spare slot.
TEST(SlabMapTest, MatchesStdMapOnRandomOperations) {
  using Value = std::vector<std::uint64_t>;  // owns heap memory, like entries
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    SlabMap<ObjectId, Value> slab;
    std::map<ObjectId, Value> model;
    std::uint64_t expected_reuses = 0;
    std::uint64_t expected_grows = 0;
    std::uint64_t expected_erases = 0;
    // A small key space so inserts, hits and erases all recur.
    const auto random_key = [&rng] {
      return ObjectId{static_cast<SiteId>(rng.NextBelow(3)),
                      rng.NextBelow(60)};
    };
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = rng.NextBelow(10);
      if (op < 5) {
        const ObjectId key = random_key();
        const std::uint64_t payload = rng.Next();
        const std::size_t live = slab.size();
        const std::size_t capacity = slab.capacity();
        const auto [it, created] = slab.try_emplace(key, Value{payload});
        const auto [model_it, model_created] =
            model.try_emplace(key, Value{payload});
        ASSERT_EQ(created, model_created);
        EXPECT_EQ(it->first, key);
        EXPECT_EQ(it->second, model_it->second);
        if (created) {
          (live == capacity ? expected_grows : expected_reuses) += 1;
          EXPECT_GE(slab.capacity(), capacity);
        }
      } else if (op < 8) {
        const ObjectId key = random_key();
        const std::size_t erased = slab.erase(key);
        EXPECT_EQ(erased, model.erase(key));
        expected_erases += erased;
      } else if (op < 9) {
        // Remove about a third; bump the payload of every entry kept.
        std::vector<ObjectId> visited;
        const std::uint64_t salt = rng.Next();
        const auto doomed = [salt](const ObjectId& key) {
          return detail::mix64(salt ^ std::hash<ObjectId>{}(key)) % 3 == 0;
        };
        const std::size_t removed = slab.erase_if([&](auto& entry) {
          visited.push_back(entry.first);
          if (doomed(entry.first)) return true;
          entry.second.push_back(salt);
          return false;
        });
        std::vector<ObjectId> model_keys;
        std::size_t model_removed = 0;
        for (auto it = model.begin(); it != model.end();) {
          model_keys.push_back(it->first);
          if (doomed(it->first)) {
            it = model.erase(it);
            ++model_removed;
          } else {
            it->second.push_back(salt);
            ++it;
          }
        }
        EXPECT_EQ(visited, model_keys);  // each entry once, in key order
        EXPECT_EQ(removed, model_removed);
        expected_erases += removed;
      } else {
        const ObjectId key = random_key();
        const auto it = slab.find(key);
        const auto model_it = model.find(key);
        ASSERT_EQ(it == slab.end(), model_it == model.end());
        if (model_it != model.end()) EXPECT_EQ(it->second, model_it->second);
      }
      ASSERT_EQ(slab.size(), model.size());
      ASSERT_TRUE(std::equal(slab.begin(), slab.end(), model.begin(),
                             model.end(), [](const auto& a, const auto& b) {
                               return a.first == b.first &&
                                      a.second == b.second;
                             }))
          << "diverged at step " << step;
    }
    EXPECT_EQ(slab.stats().reuses, expected_reuses);
    EXPECT_EQ(slab.stats().grows, expected_grows);
    EXPECT_EQ(slab.stats().inserts, expected_reuses + expected_grows);
    EXPECT_EQ(slab.stats().erases, expected_erases);
    EXPECT_GT(expected_reuses, 0u);
  }
}

// Entries do not move when other entries come and go, and the table-level
// slot counters sum both slabs.
TEST_F(RefTablesTest, EntriesStayPutAcrossErasesAndCountersSumBothTables) {
  for (std::uint64_t i = 0; i < 8; ++i) tables_.EnsureInref(ObjectId{1, i});
  InrefEntry* kept = tables_.FindInref(ObjectId{1, 5});
  for (std::uint64_t i = 0; i < 5; ++i) tables_.RemoveInref(ObjectId{1, i});
  EXPECT_EQ(tables_.FindInref(ObjectId{1, 5}), kept);
  const std::uint64_t grows = tables_.slot_grows();
  for (std::uint64_t i = 0; i < 5; ++i) tables_.EnsureInref(ObjectId{1, 20 + i});
  EXPECT_EQ(tables_.slot_grows(), grows);  // freed slots taken first
  tables_.EnsureOutref(remote_);
  EXPECT_EQ(tables_.slot_reuses() + tables_.slot_grows(), 8u + 5u + 1u);
}

}  // namespace
}  // namespace dgc
