#include "storage/disk.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/access_trace.h"
#include "storage/file_disk.h"
#include "storage/metered_disk.h"

namespace shpir::storage {
namespace {

TEST(MemoryDiskTest, ReadBackWhatWasWritten) {
  MemoryDisk disk(10, 8);
  Bytes data(8, 0x5a);
  ASSERT_TRUE(disk.Write(3, data).ok());
  Bytes out(8);
  ASSERT_TRUE(disk.Read(3, out).ok());
  EXPECT_EQ(out, data);
}

TEST(MemoryDiskTest, FreshDiskIsZeroed) {
  MemoryDisk disk(4, 16);
  Bytes out(16, 0xff);
  ASSERT_TRUE(disk.Read(0, out).ok());
  EXPECT_EQ(out, Bytes(16, 0));
}

TEST(MemoryDiskTest, BoundsChecked) {
  MemoryDisk disk(4, 16);
  Bytes buf(16);
  EXPECT_EQ(disk.Read(4, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.Write(4, buf).code(), StatusCode::kOutOfRange);
}

TEST(MemoryDiskTest, SizeChecked) {
  MemoryDisk disk(4, 16);
  Bytes wrong(15);
  EXPECT_EQ(disk.Read(0, wrong).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.Write(0, wrong).code(), StatusCode::kInvalidArgument);
}

TEST(MemoryDiskTest, RunsReadAndWriteConsecutiveSlots) {
  MemoryDisk disk(10, 4);
  std::vector<Bytes> slots;
  for (int i = 0; i < 3; ++i) {
    slots.push_back(Bytes(4, static_cast<uint8_t>(i + 1)));
  }
  ASSERT_TRUE(disk.WriteRun(5, slots).ok());
  std::vector<Bytes> out;
  ASSERT_TRUE(disk.ReadRun(5, 3, out).ok());
  EXPECT_EQ(out, slots);
  // Slot 4 and 8 untouched.
  Bytes z(4);
  ASSERT_TRUE(disk.Read(4, z).ok());
  EXPECT_EQ(z, Bytes(4, 0));
}

TEST(MemoryDiskTest, RunPastEndRejected) {
  MemoryDisk disk(10, 4);
  std::vector<Bytes> out;
  EXPECT_EQ(disk.ReadRun(8, 3, out).code(), StatusCode::kOutOfRange);
  // start + count wraps to 1: refused before 2^40 slots are allocated.
  EXPECT_EQ(disk.ReadRun((~uint64_t{0} << 40) + 1, uint64_t{1} << 40, out)
                .code(),
            StatusCode::kOutOfRange);
  std::vector<Bytes> slots(3, Bytes(4, 0));
  EXPECT_EQ(disk.WriteRun(8, slots).code(), StatusCode::kOutOfRange);
}

class FileDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per case and per process: ctest runs the cases concurrently.
    path_ = ::testing::TempDir() + "/shpir_file_disk_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FileDiskTest, CreateWriteReadReopen) {
  {
    Result<std::unique_ptr<FileDisk>> disk = FileDisk::Create(path_, 8, 32);
    ASSERT_TRUE(disk.ok()) << disk.status();
    Bytes data(32, 0x77);
    ASSERT_TRUE((*disk)->Write(5, data).ok());
  }
  Result<std::unique_ptr<FileDisk>> disk = FileDisk::Open(path_, 8, 32);
  ASSERT_TRUE(disk.ok()) << disk.status();
  Bytes out(32);
  ASSERT_TRUE((*disk)->Read(5, out).ok());
  EXPECT_EQ(out, Bytes(32, 0x77));
}

TEST_F(FileDiskTest, OpenMissingFileFails) {
  Result<std::unique_ptr<FileDisk>> disk = FileDisk::Open(path_, 8, 32);
  EXPECT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kNotFound);
}

TEST_F(FileDiskTest, GeometryMismatchRejected) {
  {
    Result<std::unique_ptr<FileDisk>> disk = FileDisk::Create(path_, 8, 32);
    ASSERT_TRUE(disk.ok());
  }
  Result<std::unique_ptr<FileDisk>> disk = FileDisk::Open(path_, 9, 32);
  EXPECT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FileDiskTest, BoundsChecked) {
  Result<std::unique_ptr<FileDisk>> disk = FileDisk::Create(path_, 4, 16);
  ASSERT_TRUE(disk.ok());
  Bytes buf(16);
  EXPECT_EQ((*disk)->Read(4, buf).code(), StatusCode::kOutOfRange);
}

/// `count` slots of `slot_size` bytes, each filled with its own byte.
std::vector<Bytes> DistinctSlots(size_t count, size_t slot_size,
                                 uint8_t first) {
  std::vector<Bytes> slots;
  for (size_t i = 0; i < count; ++i) {
    slots.push_back(Bytes(slot_size, static_cast<uint8_t>(first + i)));
  }
  return slots;
}

TEST_F(FileDiskTest, RunsRoundTrip) {
  Result<std::unique_ptr<FileDisk>> disk = FileDisk::Create(path_, 10, 24);
  ASSERT_TRUE(disk.ok()) << disk.status();
  const std::vector<Bytes> slots = DistinctSlots(4, 24, 1);
  ASSERT_TRUE((*disk)->WriteRun(3, slots).ok());
  std::vector<Bytes> out;
  ASSERT_TRUE((*disk)->ReadRun(3, 4, out).ok());
  EXPECT_EQ(out, slots);
  // The neighbours are untouched, and single slots see the run's bytes.
  Bytes slot(24);
  ASSERT_TRUE((*disk)->Read(2, slot).ok());
  EXPECT_EQ(slot, Bytes(24, 0));
  ASSERT_TRUE((*disk)->Read(7, slot).ok());
  EXPECT_EQ(slot, Bytes(24, 0));
  ASSERT_TRUE((*disk)->Read(5, slot).ok());
  EXPECT_EQ(slot, slots[2]);
}

TEST_F(FileDiskTest, RunEndingAtTheLastSlot) {
  Result<std::unique_ptr<FileDisk>> disk = FileDisk::Create(path_, 10, 24);
  ASSERT_TRUE(disk.ok()) << disk.status();
  const std::vector<Bytes> slots = DistinctSlots(10, 24, 40);
  ASSERT_TRUE((*disk)->WriteRun(0, slots).ok());
  std::vector<Bytes> out;
  ASSERT_TRUE((*disk)->ReadRun(7, 3, out).ok());
  EXPECT_EQ(out, std::vector<Bytes>(slots.begin() + 7, slots.end()));
  ASSERT_TRUE((*disk)->ReadRun(0, 10, out).ok());
  EXPECT_EQ(out, slots);
}

TEST_F(FileDiskTest, RunPastTheEndRefused) {
  Result<std::unique_ptr<FileDisk>> disk = FileDisk::Create(path_, 10, 24);
  ASSERT_TRUE(disk.ok()) << disk.status();
  std::vector<Bytes> out;
  EXPECT_EQ((*disk)->ReadRun(8, 3, out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*disk)->WriteRun(8, DistinctSlots(3, 24, 1)).code(),
            StatusCode::kOutOfRange);
  // A run whose end wraps around is past the end too.
  EXPECT_EQ((*disk)->ReadRun(~uint64_t{0}, 2, out).code(),
            StatusCode::kOutOfRange);
  // A slot of the wrong size refuses the whole run before any write.
  std::vector<Bytes> ragged = DistinctSlots(3, 24, 1);
  ragged[2].pop_back();
  EXPECT_EQ((*disk)->WriteRun(0, ragged).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*disk)->ReadRun(0, 1, out).ok());
  EXPECT_EQ(out[0], Bytes(24, 0));
}

TEST_F(FileDiskTest, RunsSurviveReopening) {
  const std::vector<Bytes> slots = DistinctSlots(5, 24, 9);
  {
    Result<std::unique_ptr<FileDisk>> disk = FileDisk::Create(path_, 10, 24);
    ASSERT_TRUE(disk.ok()) << disk.status();
    ASSERT_TRUE((*disk)->WriteRun(5, slots).ok());
  }
  Result<std::unique_ptr<FileDisk>> disk = FileDisk::Open(path_, 10, 24);
  ASSERT_TRUE(disk.ok()) << disk.status();
  std::vector<Bytes> out;
  ASSERT_TRUE((*disk)->ReadRun(5, 5, out).ok());
  EXPECT_EQ(out, slots);
}

TEST(TracingDiskTest, RecordsReadsAndWritesWithRequestIndex) {
  MemoryDisk inner(10, 4);
  AccessTrace trace;
  TracingDisk disk(&inner, &trace);
  Bytes buf(4);

  trace.BeginRequest();
  ASSERT_TRUE(disk.Read(2, buf).ok());
  ASSERT_TRUE(disk.Write(7, buf).ok());
  trace.BeginRequest();
  ASSERT_TRUE(disk.Read(1, buf).ok());

  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0],
            (AccessEvent{AccessEvent::Op::kRead, 2, 0}));
  EXPECT_EQ(trace.events()[1],
            (AccessEvent{AccessEvent::Op::kWrite, 7, 0}));
  EXPECT_EQ(trace.events()[2],
            (AccessEvent{AccessEvent::Op::kRead, 1, 1}));
  EXPECT_EQ(trace.num_requests(), 2u);
}

TEST(TracingDiskTest, PassesDataThrough) {
  MemoryDisk inner(4, 8);
  AccessTrace trace;
  TracingDisk disk(&inner, &trace);
  trace.BeginRequest();
  Bytes data(8, 0x42);
  ASSERT_TRUE(disk.Write(0, data).ok());
  Bytes out(8);
  ASSERT_TRUE(inner.Read(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(TracingDiskTest, ClearResetsTrace) {
  MemoryDisk inner(4, 8);
  AccessTrace trace;
  TracingDisk disk(&inner, &trace);
  trace.BeginRequest();
  Bytes buf(8);
  ASSERT_TRUE(disk.Read(0, buf).ok());
  trace.Clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.num_requests(), 0u);
}

TEST(MeteredDiskTest, CountsOpsBytesAndSeeks) {
  MemoryDisk inner(16, 8);
  obs::MetricsRegistry registry;
  MeteredDisk disk(&inner, &registry);
  EXPECT_EQ(disk.num_slots(), 16u);
  EXPECT_EQ(disk.slot_size(), 8u);

  Bytes data(8, 0x11);
  ASSERT_TRUE(disk.Write(0, data).ok());   // First access: one seek.
  ASSERT_TRUE(disk.Write(1, data).ok());   // Sequential: no seek.
  ASSERT_TRUE(disk.Write(7, data).ok());   // Jump: seek.
  std::vector<Bytes> run;
  ASSERT_TRUE(disk.ReadRun(8, 4, run).ok());  // Continues from 8: no seek.
  Bytes out(8);
  ASSERT_TRUE(disk.Read(3, out).ok());     // Jump back: seek.

  auto counter = [&](const std::string& name) {
    return registry.FindOrCreateCounter(name)->Value();
  };
  EXPECT_EQ(counter("shpir_disk_writes_total"), 3u);
  EXPECT_EQ(counter("shpir_disk_reads_total"), 5u);  // 4-slot run + 1.
  EXPECT_EQ(counter("shpir_disk_write_bytes_total"), 3u * 8);
  EXPECT_EQ(counter("shpir_disk_read_bytes_total"), 5u * 8);
  EXPECT_EQ(counter("shpir_disk_seeks_total"), 3u);
}

TEST(MeteredDiskTest, DelegatesDataFaithfully) {
  MemoryDisk inner(4, 16);
  obs::MetricsRegistry registry;
  MeteredDisk disk(&inner, &registry);
  Bytes data(16, 0xC3);
  ASSERT_TRUE(disk.Write(2, data).ok());
  Bytes direct(16);
  ASSERT_TRUE(inner.Read(2, direct).ok());
  EXPECT_EQ(direct, data);
  Bytes via(16);
  ASSERT_TRUE(disk.Read(2, via).ok());
  EXPECT_EQ(via, data);
}

}  // namespace
}  // namespace shpir::storage
