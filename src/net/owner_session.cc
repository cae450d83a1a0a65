#include "net/owner_session.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "crypto/hmac.h"
#include "crypto/secure_random.h"

namespace shpir::net {

namespace {

/// The device's first draw, its page key, comes from the passphrase,
/// so a restart reconstructs the same key.
uint64_t DeviceSeed(const std::string& passphrase) {
  crypto::HmacSha256 kdf(ByteSpan(
      reinterpret_cast<const uint8_t*>(passphrase.data()),
      passphrase.size()));
  const auto tag = kdf.Compute(ByteSpan(
      reinterpret_cast<const uint8_t*>("shpir-device-seed"), 17));
  return LoadLE64(tag.data());
}

Bytes EncodeHeader(const core::CApproxPir::Options& options) {
  Bytes out(OwnerSession::kHeaderSize);
  StoreLE64(options.num_pages, out.data());
  StoreLE64(options.page_size, out.data() + 8);
  StoreLE64(options.cache_pages, out.data() + 16);
  StoreLE64(options.block_size, out.data() + 24);
  StoreLE64(options.insert_reserve, out.data() + 32);
  return out;
}

core::CApproxPir::Options DecodeHeader(const Bytes& data) {
  core::CApproxPir::Options options;
  options.num_pages = LoadLE64(data.data());
  options.page_size = LoadLE64(data.data() + 8);
  options.cache_pages = LoadLE64(data.data() + 16);
  options.block_size = LoadLE64(data.data() + 24);
  options.insert_reserve = LoadLE64(data.data() + 32);
  return options;
}

Status ErrnoError(const std::string& what, const std::string& path) {
  return InternalError(what + " " + path + ": " + std::strerror(errno));
}

/// Writes `data` to `path.tmp`, fsyncs it, renames it over `path` and
/// fsyncs the directory, so `path` always holds a whole file.
Status ReplaceFile(const std::string& path, ByteSpan data) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return ErrnoError("cannot write", tmp);
  }
  bool written =
      std::fwrite(data.data(), 1, data.size(), file) == data.size() &&
      std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  written = std::fclose(file) == 0 && written;
  if (!written) {
    return ErrnoError("cannot write", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoError("cannot rename over", path);
  }
  const std::string dir = std::filesystem::path(path).replace_filename(".");
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) {
    ::close(fd);
  }
  return synced ? OkStatus() : ErrnoError("cannot fsync", dir);
}

}  // namespace

Result<std::unique_ptr<OwnerSession>> OwnerSession::Create(
    Transport* transport, const core::CApproxPir::Options& options,
    const std::string& passphrase, std::string state_path) {
  SHPIR_ASSIGN_OR_RETURN(crypto::BlobCipher cipher,
                         crypto::BlobCipher::FromPassphrase(passphrase));
  std::unique_ptr<OwnerSession> session(
      new OwnerSession(std::move(cipher), std::move(state_path)));
  SHPIR_ASSIGN_OR_RETURN(session->disk_, RemoteDisk::Connect(transport));
  SHPIR_ASSIGN_OR_RETURN(
      session->stack_,
      core::EngineStack::Create(
          options,
          hardware::HardwareProfile::TwoPartyOwner(8ull * hardware::kGB),
          DeviceSeed(passphrase), session->disk_.get()));
  // Every later draw comes from OS entropy. Were the stream the
  // passphrase's too, each command would replay the last one's nonces
  // and block choices: two commands would seal different pages under
  // one key and nonce, which gives the store the GHASH key, and the
  // store could predict the rounds.
  session->cpu().rng() = crypto::SecureRandom();
  session->disk_->set_accountant(&session->cpu().cost());
  session->options_ = options;
  session->options_.block_size = session->engine().block_size();
  return session;
}

Result<std::unique_ptr<OwnerSession>> OwnerSession::Resume(
    Transport* transport, const std::string& passphrase,
    std::string state_path) {
  std::ifstream in(state_path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + state_path);
  }
  const Bytes file{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  if (file.size() < kHeaderSize + crypto::BlobCipher::kOverhead) {
    return DataLossError("truncated state file " + state_path);
  }
  SHPIR_ASSIGN_OR_RETURN(std::unique_ptr<OwnerSession> session,
                         Create(transport, DecodeHeader(file), passphrase,
                                std::move(state_path)));
  SHPIR_ASSIGN_OR_RETURN(
      Bytes state, session->cipher_.Open(ByteSpan(file).subspan(kHeaderSize)));
  SHPIR_RETURN_IF_ERROR(session->engine().RestoreState(state));
  return session;
}

Status OwnerSession::Save() {
  SHPIR_ASSIGN_OR_RETURN(Bytes state, engine().SerializeState());
  SHPIR_ASSIGN_OR_RETURN(Bytes sealed, cipher_.Seal(state, cpu().rng()));
  Bytes file = EncodeHeader(options_);
  file.insert(file.end(), sealed.begin(), sealed.end());
  return ReplaceFile(state_path_, file);
}

}  // namespace shpir::net
