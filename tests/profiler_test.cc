#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/engine_stack.h"
#include "obs/metrics.h"
#include "storage/access_trace.h"
#include "test_stack.h"

namespace shpir::obs {
namespace {

using storage::Page;
using storage::PageId;

Profiler::Options SteadyClockOptions(uint64_t sample_every = 1) {
  Profiler::Options options;
  options.sample_every = sample_every;
  // Deterministic backend: tests must not depend on whether the host
  // grants perf_event_open.
  options.use_hw_counters = false;
  return options;
}

TEST(ProfilerTest, HeadSamplingIsExactlyOneInN) {
  Profiler profiler(SteadyClockOptions(4));
  int sampled = 0;
  for (int i = 0; i < 100; ++i) {
    if (profiler.SampleQuery()) {
      ++sampled;
    }
  }
  EXPECT_EQ(sampled, 25);
  EXPECT_EQ(profiler.queries(), 100u);
  EXPECT_EQ(profiler.sampled(), 25u);
}

TEST(ProfilerTest, SampleEveryZeroDisablesSampling) {
  Profiler profiler(SteadyClockOptions(0));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(profiler.SampleQuery());
  }
  EXPECT_EQ(profiler.queries(), 50u);
  EXPECT_EQ(profiler.sampled(), 0u);
}

TEST(ProfilerTest, NestedFramesAggregateByPath) {
  Profiler profiler(SteadyClockOptions());
  profiler.Push("round");
  profiler.Push("decrypt");
  profiler.Pop();
  profiler.Push("reencrypt");
  profiler.Pop();
  profiler.Pop();
  profiler.Push("round");
  profiler.Push("decrypt");
  profiler.Pop();
  profiler.Pop();

  const std::vector<Profiler::StackSample> stacks = profiler.Snapshot();
  ASSERT_EQ(stacks.size(), 3u);
  // Snapshot() sorts shallow-first, then by frame pointer — both
  // leaves share the "round" prefix and precede nothing shallower.
  EXPECT_EQ(stacks[0].stack, "round");
  EXPECT_EQ(stacks[0].samples, 2u);
  uint64_t decrypt_samples = 0;
  uint64_t reencrypt_samples = 0;
  for (const Profiler::StackSample& sample : stacks) {
    if (sample.stack == "round;decrypt") {
      decrypt_samples = sample.samples;
    } else if (sample.stack == "round;reencrypt") {
      reencrypt_samples = sample.samples;
    }
  }
  EXPECT_EQ(decrypt_samples, 2u);
  EXPECT_EQ(reencrypt_samples, 1u);
}

TEST(ProfilerTest, FramesBeyondMaxDepthFoldIntoAncestor) {
  Profiler profiler(SteadyClockOptions());
  static const char* kFrames[] = {"f0", "f1", "f2", "f3", "f4",
                                  "f5", "f6", "f7", "f8", "f9"};
  for (const char* frame : kFrames) {
    profiler.Push(frame);
  }
  for (size_t i = 0; i < std::size(kFrames); ++i) {
    profiler.Pop();
  }
  // Over-deep pushes pair with their pops but never mint a path deeper
  // than kMaxDepth.
  size_t max_depth = 0;
  for (const Profiler::StackSample& sample : profiler.Snapshot()) {
    size_t depth = 1;
    for (char c : sample.stack) {
      if (c == ';') {
        ++depth;
      }
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_LE(max_depth, Profiler::kMaxDepth);
}

TEST(ProfilerTest, OverDeepPushesCountAsDroppedFramesAndExport) {
  Profiler profiler(SteadyClockOptions());
  MetricsRegistry registry;
  profiler.PublishMetrics(&registry);
  constexpr size_t kDepth = Profiler::kMaxDepth + 4;
  for (size_t i = 0; i < kDepth; ++i) {
    profiler.Push("deep");
  }
  for (size_t i = 0; i < kDepth; ++i) {
    profiler.Pop();
  }
  // Exactly the frames beyond the stack bound were dropped, and the
  // loss is visible on the metrics surface without a profile dump.
  EXPECT_EQ(profiler.frames_dropped(), 4u);
  double exported = -1;
  for (const SnapshotGauge& gauge : registry.Snapshot().gauges) {
    if (gauge.name == "shpir_profile_frames_dropped_total") {
      exported = gauge.value;
    }
  }
  EXPECT_EQ(exported, 4.0);
}

TEST(ProfilerTest, ExternalSamplesFoldIntoProfile) {
  Profiler profiler(SteadyClockOptions());
  profiler.AddExternalSample({"dispatch", "queue_wait"}, 1234);
  profiler.AddExternalSample({"dispatch", "queue_wait"}, 766);
  const std::vector<Profiler::StackSample> stacks = profiler.Snapshot();
  bool found = false;
  for (const Profiler::StackSample& sample : stacks) {
    if (sample.stack == "dispatch;queue_wait") {
      found = true;
      EXPECT_EQ(sample.samples, 2u);
      EXPECT_EQ(sample.wall_ns, 2000u);
      EXPECT_EQ(sample.cycles, 0u);  // Wall time only across threads.
    }
  }
  EXPECT_TRUE(found);
}

TEST(ProfilerTest, CollapsedOutputIsFlameGraphCompatible) {
  Profiler profiler(SteadyClockOptions());
  profiler.AddExternalSample({"root", "leaf"}, 500);
  const std::string folded = profiler.ToCollapsed();
  EXPECT_NE(folded.find("root;leaf 500\n"), std::string::npos) << folded;
}

TEST(ProfilerTest, SteadyClockFallbackReportsBackend) {
  Profiler profiler(SteadyClockOptions());
  EXPECT_STREQ(profiler.backend(), "unattempted");
  profiler.Push("frame");
  profiler.Pop();
  EXPECT_STREQ(profiler.backend(), "steady_clock");
}

TEST(ProfilerTest, JsonDumpCarriesConfigAndStacks) {
  Profiler profiler(SteadyClockOptions(16));
  profiler.AddExternalSample({"root"}, 42);
  const std::string json = profiler.ToJson();
  EXPECT_NE(json.find("\"sample_every\":16"), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\":"), std::string::npos);
  EXPECT_NE(json.find("\"stack\":\"root\""), std::string::npos) << json;
}

TEST(ProfilerTest, PublishMetricsRegistersGauges) {
  Profiler profiler(SteadyClockOptions());
  MetricsRegistry registry;
  profiler.PublishMetrics(&registry);
  for (int i = 0; i < 10; ++i) {
    profiler.SampleQuery();
  }
  const MetricsSnapshot snapshot = registry.Snapshot();
  bool saw_queries = false;
  for (const SnapshotGauge& gauge : snapshot.gauges) {
    if (gauge.name == "shpir_profile_queries_total") {
      saw_queries = true;
      EXPECT_EQ(gauge.value, 10.0);
    }
  }
  EXPECT_TRUE(saw_queries);
}

TEST(ProfilerTest, NullProfileScopeIsNoOp) {
  ProfileScope scope(nullptr, "frame");
  EXPECT_FALSE(scope.active());
}

TEST(ProfilerTest, ClearDropsStacksKeepsCounters) {
  Profiler profiler(SteadyClockOptions());
  profiler.SampleQuery();
  profiler.AddExternalSample({"root"}, 1);
  profiler.Clear();
  EXPECT_TRUE(profiler.Snapshot().empty());
  EXPECT_EQ(profiler.queries(), 1u);
}

// ---------------------------------------------------------------------------
// Trust boundary: the engine's profile SHAPE (stacks + sample counts,
// no timing) must be byte-identical whatever secret pages a query
// sequence targets — the Fig. 3 round runs the same span sequence for
// every request, and the head-sampling decision is counter-based.
// ---------------------------------------------------------------------------

constexpr size_t kPageSize = 24;

Bytes PayloadFor(PageId id) {
  Bytes data(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    data[i] = static_cast<uint8_t>(id * 31 + i * 7 + 1);
  }
  return data;
}

struct Rig {
  storage::AccessTrace trace;
  std::unique_ptr<core::EngineStack> stack;
  std::unique_ptr<Profiler> profiler;
};

Rig MakeProfiledRig(uint64_t seed) {
  core::CApproxPir::Options options;
  options.num_pages = 50;
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.block_size = 8;

  std::vector<Page> pages;
  for (PageId id = 0; id < options.num_pages; ++id) {
    pages.emplace_back(id, PayloadFor(id));
  }
  Rig rig;
  rig.stack = test::LoadedStack(options, seed, pages, &rig.trace);
  rig.profiler = std::make_unique<Profiler>(SteadyClockOptions(1));
  rig.stack->engine().EnableProfiling(rig.profiler.get());
  return rig;
}

TEST(ProfilerTrustBoundary, ShapeIsByteIdenticalAcrossSecretTargets) {
  Rig hot = MakeProfiledRig(/*seed=*/7);
  Rig scan = MakeProfiledRig(/*seed=*/7);

  constexpr int kQueries = 40;
  for (int i = 0; i < kQueries; ++i) {
    // One owner hammers a single secret page; the other scans.
    Result<Bytes> a = hot.stack->engine().Retrieve(3);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    Result<Bytes> b =
        scan.stack->engine().Retrieve(static_cast<PageId>(i % 50));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
  }

  const std::string hot_shape = hot.profiler->ToCollapsedShape();
  const std::string scan_shape = scan.profiler->ToCollapsedShape();
  ASSERT_FALSE(hot_shape.empty());
  EXPECT_EQ(hot_shape, scan_shape);

  // The timing-free shape never leaks wall time either: every weight
  // in it is a sample count bounded by the query count.
  EXPECT_EQ(hot.profiler->queries(), static_cast<uint64_t>(kQueries));
  EXPECT_EQ(hot.profiler->sampled(), static_cast<uint64_t>(kQueries));
}

}  // namespace
}  // namespace shpir::obs
