#include "analysis/linkage_attack.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "crypto/secure_random.h"
#include "test_stack.h"

namespace shpir::analysis {
namespace {

TEST(LinkageAttackTest, ReportsAreConsistent) {
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, 128, 8, 8, 1);
  crypto::SecureRandom workload(2);
  Result<LinkageAttackReport> report = RunLinkageAttack(
      stack->engine(), trace, 2000, [&]() { return workload.UniformInt(128); });
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->requests, 2000u);
  EXPECT_LE(report->correct, report->guesses);
  EXPECT_LE(report->guesses, report->requests);
  EXPECT_GE(report->coverage(), 0.0);
  EXPECT_LE(report->coverage(), 1.0);
}

TEST(LinkageAttackTest, AttackNeverReachesCertainty) {
  // Even the strongest linkage heuristic stays far from precision 1 on
  // a uniform workload: the c-approximate smearing works.
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, 128, 16, 16, 3);
  crypto::SecureRandom workload(4);
  Result<LinkageAttackReport> report = RunLinkageAttack(
      stack->engine(), trace, 4000,
      [&]() { return workload.UniformInt(128); });
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->guesses, 100u);  // The adversary does try.
  EXPECT_LT(report->precision(), 0.5);
}

TEST(LinkageAttackTest, LargerBlocksWeakenTheAttack) {
  // Larger k (stronger privacy / smaller c... relative to the same T
  // base) rewrites more locations per query, so the adversary's
  // write-time signal gets noisier: precision must not increase.
  double precision_small_k;
  double precision_large_k;
  {
    storage::AccessTrace trace;
    auto stack = test::ZeroFilledStack(&trace, 256, 8, 8, 5);  // T = 32.
    crypto::SecureRandom workload(6);
    auto report = RunLinkageAttack(stack->engine(), trace, 6000, [&]() {
      return workload.UniformInt(256);
    });
    ASSERT_TRUE(report.ok());
    precision_small_k = report->precision();
  }
  {
    storage::AccessTrace trace;
    auto stack = test::ZeroFilledStack(&trace, 256, 8, 64, 7);  // T = 4.
    crypto::SecureRandom workload(8);
    auto report = RunLinkageAttack(stack->engine(), trace, 6000, [&]() {
      return workload.UniformInt(256);
    });
    ASSERT_TRUE(report.ok());
    precision_large_k = report->precision();
  }
  EXPECT_LT(precision_large_k, precision_small_k);
}

TEST(LinkageAttackTest, RepeatHeavyWorkloadIsTheWorstCase) {
  // A client that re-requests the same page immediately gives the
  // adversary its best shot; precision should exceed the uniform case.
  double uniform_precision;
  double repeat_precision;
  {
    storage::AccessTrace trace;
    auto stack = test::ZeroFilledStack(&trace, 128, 8, 8, 9);
    crypto::SecureRandom workload(10);
    auto report = RunLinkageAttack(stack->engine(), trace, 4000, [&]() {
      return workload.UniformInt(128);
    });
    ASSERT_TRUE(report.ok());
    uniform_precision = report->precision();
  }
  {
    storage::AccessTrace trace;
    auto stack = test::ZeroFilledStack(&trace, 128, 8, 8, 11);
    crypto::SecureRandom workload(12);
    // Ping-pong over two hot pages.
    uint64_t i = 0;
    auto report = RunLinkageAttack(stack->engine(), trace, 4000, [&]() {
      return (i++ / 2) % 2;
    });
    ASSERT_TRUE(report.ok());
    repeat_precision = report->precision();
  }
  EXPECT_GT(repeat_precision, uniform_precision);
}

}  // namespace
}  // namespace shpir::analysis
