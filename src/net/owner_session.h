#ifndef SHPIR_NET_OWNER_SESSION_H_
#define SHPIR_NET_OWNER_SESSION_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/engine_stack.h"
#include "crypto/blob_cipher.h"
#include "net/remote_disk.h"
#include "net/transport.h"

namespace shpir::net {

/// The data owner of the two-party model (§5, Fig. 7): an EngineStack
/// over the provider's disk, reached through a RemoteDisk, with the
/// device seed (hence the page keys) and a BlobCipher derived from the
/// passphrase. The state file carries the engine's secret state between
/// processes: a 40-byte plaintext little-endian header (n, B, m, k,
/// insert_reserve), then the sealed SerializeState() blob.
class OwnerSession {
 public:
  static constexpr size_t kHeaderSize = 40;

  /// Connects over `transport` (unowned; must outlive the session) and
  /// builds an empty store for `options`, which the caller loads with
  /// engine().Initialize(). Save() records the engine's k, so a k derived
  /// from c resumes unchanged. Writes nothing until Save().
  static Result<std::unique_ptr<OwnerSession>> Create(
      Transport* transport, const core::CApproxPir::Options& options,
      const std::string& passphrase, std::string state_path);

  /// Rebuilds the session saved at `state_path` over `transport`. A file
  /// too short to hold a state, or whose seal does not verify (a wrong
  /// passphrase, a torn or altered file), fails with DATA_LOSS.
  static Result<std::unique_ptr<OwnerSession>> Resume(
      Transport* transport, const std::string& passphrase,
      std::string state_path);

  /// Replaces the state file atomically: writes `<state>.tmp`, fsyncs
  /// it, renames it over the state file and fsyncs the directory, so a
  /// crash leaves the previous state or the new one. Each operation has
  /// written the provider's disk before this runs, so a crash between
  /// the two still leaves the saved pageMap one round behind.
  Status Save();

  core::CApproxPir& engine() { return stack_->engine(); }
  hardware::SecureCoprocessor& cpu() { return stack_->cpu(); }
  RemoteDisk& disk() { return *disk_; }

 private:
  OwnerSession(crypto::BlobCipher cipher, std::string state_path)
      : cipher_(std::move(cipher)), state_path_(std::move(state_path)) {}

  crypto::BlobCipher cipher_;
  std::string state_path_;
  core::CApproxPir::Options options_;  // What the header records.
  std::unique_ptr<RemoteDisk> disk_;
  std::unique_ptr<core::EngineStack> stack_;
};

}  // namespace shpir::net

#endif  // SHPIR_NET_OWNER_SESSION_H_
