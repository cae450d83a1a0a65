#include "net/owner_session.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "net/storage_server.h"
#include "storage/disk.h"
#include "storage/page_cipher.h"

namespace shpir::net {
namespace {

constexpr size_t kPageSize = 24;

/// k is left to Eq. 6 (block_size 0), so the saved header must carry
/// the engine's resolved k for a resume to rebuild the same geometry.
core::CApproxPir::Options StoreOptions() {
  core::CApproxPir::Options options;
  options.num_pages = 40;
  options.page_size = kPageSize;
  options.cache_pages = 6;
  options.privacy_c = 2.0;
  options.insert_reserve = 4;
  return options;
}

Bytes PayloadFor(storage::PageId id) {
  return Bytes(kPageSize, static_cast<uint8_t>(0x40 + id));
}

Bytes ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

/// The provider of the two-party model, in process: a MemoryDisk behind
/// a StorageServer, reached over DirectTransport. Each case keeps its
/// state file in its own directory (ctest runs cases concurrently).
class OwnerSessionTest : public ::testing::Test {
 protected:
  OwnerSessionTest()
      : disk_(*core::CApproxPir::DiskSlots(StoreOptions()),
              storage::PageCipher::SealedSize(kPageSize)),
        server_(&disk_),
        transport_(&server_) {}

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/shpir_owner_session_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    state_ = dir_ + "/owner.state";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Creates and loads a store, modifies page 3, reads two pages, and
  /// saves it.
  std::unique_ptr<OwnerSession> CreateSaved() {
    Result<std::unique_ptr<OwnerSession>> session = OwnerSession::Create(
        &transport_, StoreOptions(), "pass", state_);
    SHPIR_CHECK(session.ok());
    std::vector<storage::Page> pages;
    for (storage::PageId id = 0; id < StoreOptions().num_pages; ++id) {
      pages.emplace_back(id, PayloadFor(id));
    }
    OwnerSession& s = **session;
    SHPIR_CHECK_OK(s.engine().Initialize(pages));
    SHPIR_CHECK_OK(s.engine().Modify(3, Bytes(kPageSize, 0xee)));
    SHPIR_CHECK(s.engine().Retrieve(3).ok());
    SHPIR_CHECK(s.engine().Retrieve(17).ok());
    SHPIR_CHECK_OK(s.Save());
    return std::move(session).value();
  }

  Result<std::unique_ptr<OwnerSession>> Resume(const std::string& pass) {
    return OwnerSession::Resume(&transport_, pass, state_);
  }

  storage::MemoryDisk disk_;
  StorageServer server_;
  DirectTransport transport_;
  std::string dir_;
  std::string state_;
};

TEST_F(OwnerSessionTest, ResumeReturnsModifiedBytesAndCarriedOverStats) {
  const uint64_t k = CreateSaved()->engine().block_size();
  Result<std::unique_ptr<OwnerSession>> resumed = Resume("pass");
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  core::CApproxPir& engine = (*resumed)->engine();
  EXPECT_EQ(engine.block_size(), k);
  EXPECT_EQ(engine.stats().queries, 3u);
  EXPECT_EQ(engine.stats().modifies, 1u);
  Result<Bytes> modified = engine.Retrieve(3);
  ASSERT_TRUE(modified.ok()) << modified.status();
  EXPECT_EQ(*modified, Bytes(kPageSize, 0xee));
  Result<Bytes> untouched = engine.Retrieve(17);
  ASSERT_TRUE(untouched.ok()) << untouched.status();
  EXPECT_EQ(*untouched, PayloadFor(17));
  EXPECT_EQ(engine.stats().queries, 5u);
  // A second save replaces the file in place of the first, leaving no
  // temporary file behind.
  ASSERT_TRUE((*resumed)->Save().ok());
  EXPECT_FALSE(std::filesystem::exists(state_ + ".tmp"));
}

TEST_F(OwnerSessionTest, WrongPassphraseOrTruncatedFileIsDataLoss) {
  CreateSaved();
  EXPECT_EQ(Resume("not-the-pass").status().code(), StatusCode::kDataLoss);
  const Bytes file = ReadAll(state_);
  for (size_t length : {size_t{0}, size_t{20}, OwnerSession::kHeaderSize,
                        OwnerSession::kHeaderSize + 30, file.size() / 2,
                        file.size() - 1}) {
    std::ofstream(state_, std::ios::binary)
        .write(reinterpret_cast<const char*>(file.data()),
               static_cast<std::streamsize>(length));
    Result<std::unique_ptr<OwnerSession>> resumed = Resume("pass");
    ASSERT_FALSE(resumed.ok()) << "length " << length;
    EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss)
        << "length " << length << ": " << resumed.status();
  }
}

TEST_F(OwnerSessionTest, HeaderIsPinnedByteForByte) {
  CreateSaved();
  const Bytes file = ReadAll(state_);
  // n = 40, B = 24, m = 6, k = 11 (Eq. 6 at c = 2), insert_reserve = 4,
  // each a little-endian uint64, then the sealed state.
  const Bytes expected = {40, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0, 0, 0, 0,
                          0,  0, 6, 0, 0, 0, 0, 0, 0,  0, 11, 0, 0, 0,
                          0,  0, 0, 0, 4, 0, 0, 0, 0,  0, 0, 0};
  ASSERT_GT(file.size(), OwnerSession::kHeaderSize);
  EXPECT_EQ(Bytes(file.begin(), file.begin() + OwnerSession::kHeaderSize),
            expected);
}

TEST_F(OwnerSessionTest, SaveKilledMidWriteLeavesThePreviousState) {
  std::unique_ptr<OwnerSession> session = CreateSaved();
  const size_t saved_size = ReadAll(state_).size();

  // The child modifies page 3 again and dies while saving: the file
  // size limit is half the state's size, so SIGXFSZ kills it mid-write.
  // Its engine and provider are copies, so the parent's stay as saved.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const rlimit no_core = {0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    (void)session->engine().Modify(3, Bytes(kPageSize, 0x11));
    rlimit limit;
    ::getrlimit(RLIMIT_FSIZE, &limit);
    limit.rlim_cur = saved_size / 2;
    ::setrlimit(RLIMIT_FSIZE, &limit);
    (void)session->Save();
    ::_exit(0);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status)) << "the save was not cut short";
  EXPECT_EQ(WTERMSIG(wait_status), SIGXFSZ);

  session.reset();
  Result<std::unique_ptr<OwnerSession>> resumed = Resume("pass");
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  core::CApproxPir& engine = (*resumed)->engine();
  EXPECT_EQ(engine.stats().queries, 3u);
  EXPECT_EQ(engine.stats().modifies, 1u);
  Result<Bytes> page = engine.Retrieve(3);
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(*page, Bytes(kPageSize, 0xee));
}

}  // namespace
}  // namespace shpir::net
