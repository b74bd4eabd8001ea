// Property tests for the prober's pending index (active/prober.h): random
// emplace / assign / find / erase sequences against a std::map reference
// model, over a small key space so probes collide, tombstones pile up and
// get reused, and tables outgrow their presized capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "active/prober.h"
#include "util/rng.h"

namespace svcdisc::active {
namespace {

using passive::ServiceKey;

struct KeyLess {
  bool operator()(const ServiceKey& a, const ServiceKey& b) const {
    return std::tuple(a.addr.value(), a.proto, a.port) <
           std::tuple(b.addr.value(), b.proto, b.port);
  }
};

/// The index under test plus the outcome vector it reads keys from, kept
/// in step with a std::map model of key -> outcome position.
struct Harness {
  /// Appends an outcome for `key` at the next position and returns it.
  std::size_t push(const ServiceKey& key) {
    outcomes.push_back({key, ProbeStatus::kPending, {}});
    return outcomes.size() - 1;
  }

  void emplace(const ServiceKey& key) {
    const std::size_t pos = outcomes.size();
    const bool fresh = !model.contains(key);
    ASSERT_EQ(index.emplace(key, pos), fresh);
    if (fresh) {
      push(key);
      model[key] = pos;
    }
  }

  void assign(const ServiceKey& key) {
    const std::size_t pos = push(key);
    index.assign(key, pos);
    model[key] = pos;
  }

  void erase(const ServiceKey& key) {
    const auto it = model.find(key);
    const std::size_t expected =
        it == model.end() ? PendingIndex::npos : it->second;
    ASSERT_EQ(index.erase(key), expected);
    if (it != model.end()) model.erase(it);
  }

  void check(const ServiceKey& key) const {
    const auto it = model.find(key);
    EXPECT_EQ(index.find(key),
              it == model.end() ? PendingIndex::npos : it->second);
  }

  /// Every key of the model, and a miss, resolve as the model says.
  void check_all() const {
    ASSERT_EQ(index.size(), model.size());
    for (const auto& [key, pos] : model) {
      ASSERT_EQ(index.find(key), pos);
      ASSERT_EQ(outcomes[pos].key, key);
    }
    EXPECT_EQ(index.find({net::Ipv4(0xFFFFFFFFu), net::Proto::kTcp, 1}),
              PendingIndex::npos);
  }

  std::vector<ProbeOutcome> outcomes;
  PendingIndex index{outcomes};
  std::map<ServiceKey, std::size_t, KeyLess> model;
};

ServiceKey random_key(util::Rng& rng) {
  // 64 addresses x 2 protocols x 4 ports: 512 keys, so sequences revisit
  // keys often enough to exercise duplicates, repeats and tombstones.
  return {net::Ipv4(0x0B000000u + static_cast<std::uint32_t>(rng.below(64))),
          rng.chance(0.5) ? net::Proto::kTcp : net::Proto::kUdp,
          static_cast<net::Port>(rng.below(4) * 1000 + 22)};
}

void run_sequence(std::uint64_t seed, std::size_t reserved, int ops) {
  util::Rng rng(seed);
  Harness h;
  h.index.reserve(reserved);
  for (int i = 0; i < ops; ++i) {
    const ServiceKey key = random_key(rng);
    switch (rng.below(4)) {
      case 0: h.emplace(key); break;
      case 1: h.assign(key); break;
      case 2: h.erase(key); break;
      default: h.check(key); break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.check_all();
}

TEST(PendingIndexProperty, MatchesMapModelWithinThePresizedCapacity) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    run_sequence(seed, /*reserved=*/4096, /*ops=*/3000);
  }
}

TEST(PendingIndexProperty, MatchesMapModelWhileGrowingPastThePresize) {
  for (std::uint64_t seed = 101; seed <= 140; ++seed) {
    SCOPED_TRACE(seed);
    run_sequence(seed, /*reserved=*/8, /*ops=*/3000);
  }
}

TEST(PendingIndexProperty, PresizedInsertsNeverRegrow) {
  Harness h;
  h.index.reserve(10000);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    h.emplace({net::Ipv4(0x0B000000u + i), net::Proto::kTcp, 80});
  }
  EXPECT_EQ(h.index.regrowths(), 0u);
  h.check_all();
}

TEST(PendingIndexProperty, GrowsPastAnExceededEstimateAndKeepsEveryEntry) {
  Harness h;
  h.index.reserve(16);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    h.emplace({net::Ipv4(0x0B000000u + i), net::Proto::kUdp, 53});
  }
  EXPECT_GT(h.index.regrowths(), 0u);
  h.check_all();
  // An unreserved table grows from nothing.
  Harness cold;
  cold.emplace({net::Ipv4(0x0B000001u), net::Proto::kTcp, 22});
  EXPECT_EQ(cold.index.regrowths(), 1u);
  cold.check_all();
}

TEST(PendingIndexProperty, ErasedSlotsAreReusedWithoutRegrowth) {
  // One key resolved and re-probed a thousand times, as a repeated
  // target would be: each insert lands on its own tombstone, so a table
  // sized for one entry never fills.
  Harness h;
  h.index.reserve(1);
  const ServiceKey key{net::Ipv4(0x0B000001u), net::Proto::kTcp, 80};
  for (int i = 0; i < 1000; ++i) {
    h.emplace(key);
    h.erase(key);
  }
  h.emplace(key);
  EXPECT_EQ(h.index.regrowths(), 0u);
  h.check_all();
}

TEST(PendingIndexProperty, EraseMissAndDuplicateEmplaceChangeNothing) {
  Harness h;
  const ServiceKey key{net::Ipv4(0x0B000001u), net::Proto::kTcp, 80};
  h.erase(key);  // late response before anything was sent
  h.emplace(key);
  h.emplace(key);  // repeated target while pending keeps the first entry
  EXPECT_EQ(h.outcomes.size(), 1u);
  h.erase(key);
  h.erase(key);  // duplicate response
  h.emplace(key);  // repeat after resolution: fresh position
  EXPECT_EQ(h.index.find(key), 1u);
  h.check_all();
}

TEST(PendingIndexProperty, ClearDropsEveryEntry) {
  Harness h;
  for (std::uint32_t i = 0; i < 100; ++i) {
    h.emplace({net::Ipv4(0x0B000000u + i), net::Proto::kTcp, 80});
  }
  h.index.clear();
  h.model.clear();
  h.check_all();
  h.emplace({net::Ipv4(0x0B000000u), net::Proto::kTcp, 80});
  h.check_all();
}

}  // namespace
}  // namespace svcdisc::active
