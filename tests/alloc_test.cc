// Allocation tests: the per-event, per-message and per-trace paths must not
// touch the heap once warmed up. This binary replaces the global operator
// new/delete with counting versions, so it stands apart from the other test
// binaries (and is not built under the sanitizers, which interpose on the
// allocator themselves).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "backinfo/outset_store.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace {

// Counted only while armed, so gtest's own bookkeeping stays out of it.
bool g_armed = false;
std::uint64_t g_allocations = 0;

}  // namespace

// GCC cannot see that these deletes pair with the malloc-backed new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_armed) ++g_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dgc {
namespace {

/// Heap allocations made by `body`.
template <typename Body>
std::uint64_t CountAllocations(Body body) {
  g_allocations = 0;
  g_armed = true;
  body();
  g_armed = false;
  return g_allocations;
}

// Three sites play ping-pong: every delivery to site s sends the next probe
// to (s + 1) % 3 until the volley runs out, and every one also sends a
// self-addressed probe (a local back step's shape) that ends there.
struct Volley {
  Scheduler scheduler;
  std::unique_ptr<Network> net;
  std::uint64_t delivered = 0;

  explicit Volley(NetworkConfig config) {
    config.latency = 3;
    net = std::make_unique<Network>(scheduler, config, Rng(1));
    for (SiteId s = 0; s < 3; ++s) {
      net->RegisterSite(s, [this, s](const Envelope& envelope) {
        ++delivered;
        const auto& probe = std::get<GlobalGcControlMsg>(envelope.payload);
        if (envelope.from == s || probe.value == 0) return;
        net->Send(s, s, Probe(0));
        net->Send(s, (s + 1) % 3, Probe(probe.value - 1));
      });
    }
  }

  static Payload Probe(std::uint64_t value) {
    return GlobalGcControlMsg{value, GlobalGcControlMsg::Phase::kProbe, value};
  }

  /// Starts `volleys` concurrent volleys of `length` hops and drains them.
  void Play(int volleys, std::uint64_t length) {
    for (int v = 0; v < volleys; ++v) {
      net->Send(static_cast<SiteId>(v % 3), static_cast<SiteId>((v + 1) % 3),
                Probe(length));
    }
    scheduler.RunUntilIdle();
  }
};

void ExpectSteadyTrafficAllocatesNothing(SimTime batch_window) {
  NetworkConfig config;
  config.batch_window = batch_window;
  Volley volley(config);
  volley.Play(16, 300);  // warm-up: pools, slot tables, heap, clamp shards
  const std::uint64_t warm = volley.delivered;
  const std::uint64_t allocations =
      CountAllocations([&] { volley.Play(16, 300); });
  EXPECT_EQ(volley.delivered - warm, warm);  // the same traffic again
  EXPECT_GT(volley.net->stats().self_deliveries, 0u);
  EXPECT_EQ(allocations, 0u);
}

TEST(AllocTest, SteadyStateDeliveryAllocatesNothing) {
  ExpectSteadyTrafficAllocatesNothing(/*batch_window=*/0);
}

TEST(AllocTest, SteadyStateBatchedDeliveryAllocatesNothing) {
  ExpectSteadyTrafficAllocatesNothing(/*batch_window=*/2);
}

// One trace's worth of interning and memoized unions over a fixed set of
// refs: singletons, chains of Add, and unions of the results. Writes the ids
// into `ids`, whose capacity the caller provides.
void OneTrace(OutsetStore& store, std::vector<OutsetStore::OutsetId>& ids) {
  ids.clear();
  for (std::uint64_t i = 0; i < 200; ++i) {
    OutsetStore::OutsetId id = OutsetStore::kEmpty;
    for (std::uint64_t k = 0; k < 1 + i % 6; ++k) {
      id = store.Add(id, ObjectId{static_cast<SiteId>(1 + k % 3),
                                  (i * 7 + k * 13) % 97});
    }
    ids.push_back(id);
    if (i > 0) ids.push_back(store.Union(ids[ids.size() - 2], id));
  }
}

TEST(AllocTest, RepeatedOutsetTraceAfterClearAllocatesNothing) {
  OutsetStore store;
  std::vector<OutsetStore::OutsetId> first;
  std::vector<OutsetStore::OutsetId> again;
  first.reserve(400);
  again.reserve(400);
  store.Reserve(64);
  OneTrace(store, first);
  const std::size_t distinct = store.distinct_outsets();
  ASSERT_GT(store.stats().unions_computed, 0u);
  store.Clear();
  const std::uint64_t allocations = CountAllocations([&] {
    store.Reserve(64);
    OneTrace(store, again);
  });
  EXPECT_EQ(again, first);
  EXPECT_EQ(store.distinct_outsets(), distinct);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace dgc
