#include "workload/workload.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "model/queueing.h"

namespace shpir::workload {
namespace {

TEST(WorkloadTest, UniformStaysInRangeAndIsFlat) {
  UniformWorkload wl(100, 1);
  std::map<storage::PageId, int> counts;
  for (int i = 0; i < 100000; ++i) {
    const storage::PageId id = wl.Next();
    ASSERT_LT(id, 100u);
    counts[id]++;
  }
  EXPECT_EQ(counts.size(), 100u);
  for (const auto& [id, count] : counts) {
    EXPECT_GT(count, 700) << id;
    EXPECT_LT(count, 1300) << id;
  }
  const std::vector<double> dist = wl.Distribution();
  EXPECT_DOUBLE_EQ(dist[0], 0.01);
}

TEST(WorkloadTest, ZipfIsSkewedAndMatchesDistribution) {
  ZipfWorkload wl(100, 1.0, 2);
  std::map<storage::PageId, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    counts[wl.Next()]++;
  }
  // Page 0 is the most popular; empirical frequency tracks the density.
  const std::vector<double> dist = wl.Distribution();
  EXPECT_GT(dist[0], dist[1]);
  EXPECT_GT(dist[1], dist[50]);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kDraws, dist[0], 0.01);
  EXPECT_NEAR(static_cast<double>(counts[10]) / kDraws, dist[10], 0.01);
  double sum = 0;
  for (double p : dist) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(WorkloadTest, HotspotConcentratesTraffic) {
  HotspotWorkload wl(1000, 10, 0.9, 3);
  int hot = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (wl.Next() < 10) {
      ++hot;
    }
  }
  // 90% explicit + ~1% incidental from the uniform tail.
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, 0.901, 0.02);
  double sum = 0;
  for (double p : wl.Distribution()) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(WorkloadTest, ScanCyclesInOrder) {
  ScanWorkload wl(5);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(wl.Next(), i);
    }
  }
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  ZipfWorkload a(100, 1.2, 7), b(100, 1.2, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(KeyedWorkloadTest, KeyForIndexIsCanonical) {
  EXPECT_EQ(KeyForIndex(0), Bytes({'k', 'e', 'y', '-', '0'}));
  EXPECT_EQ(KeyForIndex(42), KeyForIndex(42));
  EXPECT_NE(KeyForIndex(1), KeyForIndex(10));
}

TEST(KeyedWorkloadTest, ZipfKeysRespectHitRatioAndKeySpace) {
  constexpr uint64_t kNumKeys = 200;
  constexpr int kDraws = 20000;
  ZipfKeyWorkload wl(kNumKeys, 0.99, 0.7, 5);
  std::set<Bytes, BytesLess> key_space;
  for (uint64_t i = 0; i < kNumKeys; ++i) {
    key_space.insert(KeyForIndex(i));
  }
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) {
    const KeyRequest request = wl.Next();
    if (request.hit) {
      ++hits;
      EXPECT_TRUE(key_space.count(request.key))
          << "hit key outside the key space";
    } else {
      EXPECT_FALSE(key_space.count(request.key))
          << "miss key collides with a stored key";
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.7, 0.02);
}

TEST(KeyedWorkloadTest, DeterministicGivenSeed) {
  ZipfKeyWorkload a(100, 1.0, 0.5, 9), b(100, 1.0, 0.5, 9);
  for (int i = 0; i < 200; ++i) {
    const KeyRequest ra = a.Next();
    const KeyRequest rb = b.Next();
    EXPECT_EQ(ra.hit, rb.hit);
    EXPECT_EQ(ra.key, rb.key);
  }
}

}  // namespace
}  // namespace shpir::workload

namespace shpir::model {
namespace {

TEST(QueueingTest, EmptyAndInvalidInputs) {
  EXPECT_DOUBLE_EQ(SimulateFifoQueue({}, 1.0, 1).mean_s, 0.0);
  EXPECT_DOUBLE_EQ(SimulateFifoQueue({1.0}, 0.0, 1).mean_s, 0.0);
}

TEST(QueueingTest, LightLoadSojournNearService) {
  // At negligible load, sojourn ~= service time.
  std::vector<double> service(5000, 0.010);
  const QueueStats stats = SimulateFifoQueue(service, 1.0, 2);
  EXPECT_NEAR(stats.utilization, 0.010, 1e-9);
  EXPECT_NEAR(stats.p50_s, 0.010, 0.002);
  EXPECT_LT(stats.p99_s, 0.05);
}

TEST(QueueingTest, MD1MeanWaitMatchesTheory) {
  // M/D/1: W_q = rho * s / (2 (1 - rho)). At rho = 0.5, s = 10ms:
  // W_q = 5ms, sojourn = 15ms.
  std::vector<double> service(200000, 0.010);
  const QueueStats stats = SimulateFifoQueue(service, 50.0, 3);
  EXPECT_NEAR(stats.utilization, 0.5, 1e-9);
  EXPECT_NEAR(stats.mean_s, 0.015, 0.002);
}

TEST(QueueingTest, ServiceSpikesInflateTheTail) {
  // Identical mean service; one stream has rare 100x spikes.
  std::vector<double> flat(20000, 0.010);
  std::vector<double> spiky = flat;
  for (size_t i = 0; i < spiky.size(); i += 200) {
    spiky[i] = 1.0;  // One 1s spike per 200 queries.
  }
  const double rate = 20.0;
  const QueueStats flat_stats = SimulateFifoQueue(flat, rate, 4);
  const QueueStats spiky_stats = SimulateFifoQueue(spiky, rate, 4);
  EXPECT_GT(spiky_stats.p99_s, 10 * flat_stats.p99_s);
}

TEST(QueueingTest, HigherLoadMeansLongerQueues) {
  std::vector<double> service(50000, 0.010);
  const QueueStats low = SimulateFifoQueue(service, 30.0, 5);
  const QueueStats high = SimulateFifoQueue(service, 90.0, 5);
  EXPECT_GT(high.mean_s, low.mean_s);
  EXPECT_GT(high.p99_s, low.p99_s);
}

}  // namespace
}  // namespace shpir::model

namespace shpir::workload {
namespace {

DiurnalBurstyWorkload::Options BurstyOptions(uint64_t seed) {
  DiurnalBurstyWorkload::Options options;
  options.num_pages = 128;
  options.base_qps = 50.0;
  options.mean_burst_interval_s = 10.0;
  options.burst_duration_s = 3.0;
  options.seed = seed;
  return options;
}

TEST(DiurnalBurstyWorkloadTest, SeededReplayIsExact) {
  // The controller bench depends on this: the same seed must replay the
  // byte-identical (arrival_ns, page) schedule, so adaptive and static
  // runs see the same traffic and regressions reproduce.
  DiurnalBurstyWorkload a(BurstyOptions(7));
  DiurnalBurstyWorkload b(BurstyOptions(7));
  DiurnalBurstyWorkload other(BurstyOptions(8));
  EXPECT_STREQ(a.name(), "diurnal-bursty");

  bool diverged = false;
  uint64_t last_arrival = 0;
  for (int i = 0; i < 5000; ++i) {
    const TimedRequest ra = a.Next();
    const TimedRequest rb = b.Next();
    const TimedRequest rc = other.Next();
    ASSERT_EQ(ra.arrival_ns, rb.arrival_ns) << "at request " << i;
    ASSERT_EQ(ra.page, rb.page) << "at request " << i;
    diverged = diverged || ra.arrival_ns != rc.arrival_ns ||
               ra.page != rc.page;
    EXPECT_LT(ra.page, 128u);
    EXPECT_GE(ra.arrival_ns, last_arrival);  // Monotone stream clock.
    last_arrival = ra.arrival_ns;
  }
  EXPECT_TRUE(diverged);  // A different seed is a different schedule.
}

TEST(DiurnalBurstyWorkloadTest, BurstsElevateTheArrivalRate) {
  DiurnalBurstyWorkload::Options options = BurstyOptions(21);
  options.burst_factor = 5.0;
  DiurnalBurstyWorkload wl(options);

  double burst_gap_sum = 0.0, quiet_gap_sum = 0.0;
  uint64_t burst_count = 0, quiet_count = 0;
  double previous_clock = 0.0;
  for (int i = 0; i < 20000; ++i) {
    (void)wl.Next();
    const double gap = wl.clock_seconds() - previous_clock;
    previous_clock = wl.clock_seconds();
    if (wl.in_burst()) {
      burst_gap_sum += gap;
      ++burst_count;
    } else {
      quiet_gap_sum += gap;
      ++quiet_count;
    }
  }
  // Both regimes appear, and inside a burst arrivals come much faster.
  ASSERT_GT(burst_count, 100u);
  ASSERT_GT(quiet_count, 100u);
  EXPECT_LT(burst_gap_sum / burst_count,
            0.5 * (quiet_gap_sum / quiet_count));
}

}  // namespace
}  // namespace shpir::workload
