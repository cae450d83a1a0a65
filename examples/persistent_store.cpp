// Persistence: a private page store that survives process restarts,
// kept the way shpir_owner keeps one, with the provider in process.
// Session 1 creates a file-backed database behind a StorageServer,
// serves queries, then saves the owner's secure state to a state file
// sealed under a passphrase. Session 2 reopens the disk file, resumes
// from the state file and continues exactly where session 1 left off.
//
//   ./persistent_store DIR
//
// DIR (created if missing) holds the disk file and the state file.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/check.h"
#include "crypto/secure_random.h"
#include "net/owner_session.h"
#include "net/storage_server.h"
#include "storage/file_disk.h"
#include "storage/page_cipher.h"

namespace {

using namespace shpir;

constexpr size_t kPageSize = 256;

core::CApproxPir::Options Options() {
  core::CApproxPir::Options options;
  options.num_pages = 500;
  options.page_size = kPageSize;
  options.cache_pages = 32;
  options.privacy_c = 2.0;
  return options;
}

Bytes Record(uint64_t id, const char* suffix) {
  std::string text = "record-" + std::to_string(id) + suffix;
  Bytes data(text.begin(), text.end());
  data.resize(kPageSize, 0);
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s DIR\n", argv[0]);
    return 2;
  }
  std::filesystem::create_directories(argv[1]);
  const std::string disk_path = std::string(argv[1]) + "/store.bin";
  const std::string state_path = std::string(argv[1]) + "/owner.state";
  const std::string passphrase = "owner-escrow-passphrase";
  const auto options = Options();
  auto slots = core::CApproxPir::DiskSlots(options);
  SHPIR_CHECK(slots.ok());
  const size_t slot_size = storage::PageCipher::SealedSize(kPageSize);

  // ---- Session 1: create, query, save --------------------------------
  {
    auto disk = storage::FileDisk::Create(disk_path, *slots, slot_size);
    SHPIR_CHECK(disk.ok());
    net::StorageServer server(disk->get());
    net::DirectTransport transport(&server);
    auto session = net::OwnerSession::Create(&transport, options,
                                             passphrase, state_path);
    SHPIR_CHECK(session.ok());
    core::CApproxPir& engine = (*session)->engine();
    std::vector<storage::Page> pages;
    for (uint64_t id = 0; id < options.num_pages; ++id) {
      pages.emplace_back(id, Record(id, ""));
    }
    SHPIR_CHECK_OK(engine.Initialize(pages));

    crypto::SecureRandom rng(1);
    for (int i = 0; i < 300; ++i) {
      SHPIR_CHECK(engine.Retrieve(rng.UniformInt(500)).ok());
    }
    SHPIR_CHECK_OK(engine.Modify(42, Record(42, "-updated")));
    std::printf("session 1: %llu queries served, page 42 updated\n",
                (unsigned long long)engine.stats().queries);

    // Save the secure state, sealed under the owner's passphrase.
    SHPIR_CHECK_OK((*session)->Save());
    std::printf("session 1: state saved (%ju bytes)\n\n",
                std::uintmax_t{std::filesystem::file_size(state_path)});
  }

  // ---- Session 2: reopen, resume, continue ---------------------------
  {
    auto disk = storage::FileDisk::Open(disk_path, *slots, slot_size);
    SHPIR_CHECK(disk.ok());
    net::StorageServer server(disk->get());
    net::DirectTransport transport(&server);
    auto session =
        net::OwnerSession::Resume(&transport, passphrase, state_path);
    SHPIR_CHECK(session.ok());
    core::CApproxPir& engine = (*session)->engine();

    std::printf("session 2: restored at query #%llu\n",
                (unsigned long long)engine.stats().queries);
    auto updated = engine.Retrieve(42);
    SHPIR_CHECK(updated.ok());
    std::printf("session 2: page 42 reads back '%s'\n",
                std::string(updated->begin(),
                            std::find(updated->begin(), updated->end(),
                                      uint8_t{0}))
                    .c_str());
    crypto::SecureRandom rng(2);
    for (int i = 0; i < 100; ++i) {
      const uint64_t id = rng.UniformInt(500);
      auto data = engine.Retrieve(id);
      SHPIR_CHECK(data.ok());
    }
    std::printf("session 2: 100 more private queries served — state, "
                "permutation and cache all survived the restart.\n");
  }
  std::remove(disk_path.c_str());
  std::remove(state_path.c_str());
  return 0;
}
