#include "workload/scripted.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace dgc {
namespace {

// Every object gets two slots: slot 0 carries the ring edge (or tether),
// slot 1 the optional chord, so a denser spec mints the same ids.
constexpr std::size_t kSlots = 2;

ScriptedRing BuildRing(GodWorld& world, Rng& rng, std::size_t span,
                       bool chords) {
  const std::size_t sites = world.site_count();
  const SiteId start = static_cast<SiteId>(rng.NextBelow(sites));
  span = std::max<std::size_t>(2, std::min(span, sites));

  ScriptedRing ring;
  ring.objects.reserve(span);
  for (std::size_t k = 0; k < span; ++k) {
    const SiteId site = static_cast<SiteId>((start + k) % sites);
    ring.objects.push_back(world.NewObject(site, kSlots));
  }
  for (std::size_t k = 0; k < span; ++k) {
    world.Wire(ring.objects[k], 0, ring.objects[(k + 1) % span]);
  }
  if (chords && span >= 3) {
    for (std::size_t k = 0; k < span; ++k) {
      world.Wire(ring.objects[k], 1, ring.objects[(k + 2) % span]);
    }
  }
  // The tether lives on the ring's first site and is a persistent root; as
  // long as its slot 0 points into the ring, every member is reachable.
  ring.tether = world.NewObject(start, kSlots);
  world.SetPersistentRoot(ring.tether);
  world.Wire(ring.tether, 0, ring.objects.front());
  return ring;
}

}  // namespace

ScriptedChurnResult RunScriptedChurn(GodWorld& world, std::uint64_t seed,
                                     const ScriptedChurnSpec& spec) {
  DGC_CHECK(world.site_count() >= 2);
  Rng rng(seed);
  ScriptedChurnResult result;

  for (std::size_t round = 0; round < spec.rounds; ++round) {
    for (std::size_t i = 0; i < spec.rings_per_round; ++i) {
      result.rings.push_back(
          BuildRing(world, rng, spec.ring_span, spec.chords));
    }
    for (std::size_t i = 0; i < spec.locals_per_round; ++i) {
      const SiteId site =
          static_cast<SiteId>(rng.NextBelow(world.site_count()));
      const ObjectId obj = world.NewObject(site, kSlots);
      world.Wire(obj, 0, obj);  // self-loop, unrooted: local garbage
      result.locals.push_back(obj);
    }
    // Cut tethers on rings created in EARLIER rounds (skip this round's:
    // their registration traffic may still be in flight, and cutting
    // settled rings is the interesting case for back tracing anyway).
    const std::size_t fresh = spec.rings_per_round;
    const std::size_t settled = result.rings.size() - fresh;
    for (std::size_t i = 0; i < settled; ++i) {
      ScriptedRing& ring = result.rings[i];
      if (!ring.cut && rng.NextBool(spec.cut_probability)) {
        world.Unwire(ring.tether, 0);
        ring.cut = true;
        ++result.cuts;
      }
    }
    world.RunRound();
  }

  // Cut every remaining tether so the final state is fully determined, then
  // drain: every cut ring must reach a garbage verdict and be reclaimed.
  for (ScriptedRing& ring : result.rings) {
    if (!ring.cut) {
      world.Unwire(ring.tether, 0);
      ring.cut = true;
      ++result.cuts;
    }
  }
  world.Settle();
  for (std::size_t i = 0; i < spec.drain_rounds; ++i) world.RunRound();
  return result;
}

}  // namespace dgc
