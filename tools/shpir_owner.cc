// Data-owner CLI for the two-party model: manages a private page store
// hosted at an untrusted shpir_provider over TCP. The owner machine
// plays the secure-hardware role; its state snapshot is sealed under
// the passphrase between invocations.
//
//   shpir_owner init   --pages N [--page-size B] [--cache M] [--c C]
//                      [--reserve R] <common flags>
//   shpir_owner get    --id I   <common flags>
//   shpir_owner put    --id I --data TEXT <common flags>
//   shpir_owner insert --data TEXT <common flags>
//   shpir_owner remove --id I   <common flags>
//   shpir_owner stats  <common flags>
//
// common flags: --host H (default 127.0.0.1) --port P
//               --state FILE (default shpir_owner.state)
//               --passphrase PASS (default "shpir")
//               --trace-sample N (head-sample 1-in-N commands; 0 = off)
//               --trace-out FILE (dump the owner-side spans as Chrome
//                 trace JSON after the command; provider-side spans are
//                 fetched separately with `shpir_stats trace`)
//               --profile-sample N (profile 1-in-N engine rounds; 0 =
//                 off) and --profile-out FILE (write the owner-side
//                 collapsed flame-graph profile after the command;
//                 provider-side profiles come from `shpir_stats profile`)
//
// Example session:
//   slots=$(...)                         # printed by `init`
//   shpir_provider /tmp/db.bin $slots 1076 9000 &
//   shpir_owner init --port 9000 --pages 1000
//   shpir_owner put --port 9000 --id 7 --data "hello"
//   shpir_owner get --port 9000 --id 7
//
// Known limitation: the state file is rewritten after each operation;
// killing the process between the remote writes and the state save
// desynchronizes them (the next restore will fail its consistency
// checks). A production deployment would journal state updates.

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "common/check.h"
#include "core/capprox_pir.h"
#include "crypto/blob_cipher.h"
#include "crypto/hmac.h"
#include "hardware/coprocessor.h"
#include "net/remote_disk.h"
#include "net/tcp_transport.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace {

using namespace shpir;
using cli::Flags;
using cli::Kind;

/// The flags `command` accepts: its own plus the common ones. Empty for
/// an unknown command.
std::vector<cli::Flag> AcceptedFlags(const std::string& command) {
  std::vector<cli::Flag> flags;
  if (command == "init") {
    flags = {{"pages", Kind::kCount},
             {"page-size", Kind::kCount},
             {"cache", Kind::kCount},
             {"c", Kind::kReal},
             {"reserve", Kind::kCount}};
  } else if (command == "get" || command == "remove") {
    flags = {{"id", Kind::kCount}};
  } else if (command == "put") {
    flags = {{"id", Kind::kCount}, {"data", Kind::kText}};
  } else if (command == "insert") {
    flags = {{"data", Kind::kText}};
  } else if (command != "stats") {
    return {};
  }
  flags.insert(flags.end(), {{"host", Kind::kText},
                             {"port", Kind::kPort},
                             {"state", Kind::kText},
                             {"passphrase", Kind::kText},
                             {"trace-sample", Kind::kCount},
                             {"trace-out", Kind::kText},
                             {"profile-sample", Kind::kCount},
                             {"profile-out", Kind::kText}});
  return flags;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// The device seed (hence its keys) is derived from the passphrase so
// restarts reconstruct the same keys.
uint64_t DeviceSeed(const std::string& passphrase) {
  crypto::HmacSha256 kdf(ByteSpan(
      reinterpret_cast<const uint8_t*>(passphrase.data()),
      passphrase.size()));
  const auto tag = kdf.Compute(ByteSpan(
      reinterpret_cast<const uint8_t*>("shpir-device-seed"), 17));
  return LoadLE64(tag.data());
}

Result<Bytes> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

Status WriteFile(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return InternalError("cannot write " + path);
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out ? OkStatus() : InternalError("short write to " + path);
}

struct Session {
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<net::RemoteDisk> disk;
  std::unique_ptr<hardware::SecureCoprocessor> cpu;
  std::unique_ptr<obs::Tracer> tracer;  // Null unless --trace-sample.
  std::unique_ptr<obs::Profiler> profiler;  // Null unless --profile-sample.
  std::unique_ptr<core::CApproxPir> engine;
  core::CApproxPir::Options options;
  crypto::BlobCipher cipher;
  std::string state_path;

  explicit Session(crypto::BlobCipher c) : cipher(std::move(c)) {}

  Status SaveState() {
    SHPIR_ASSIGN_OR_RETURN(Bytes state, engine->SerializeState());
    SHPIR_ASSIGN_OR_RETURN(Bytes sealed, cipher.Seal(state, cpu->rng()));
    return WriteFile(state_path, sealed);
  }
};

// The options are persisted (plaintext geometry header) next to the
// sealed state so later invocations can rebuild the stack.
Bytes EncodeMeta(const core::CApproxPir::Options& options) {
  Bytes out(8 * 5);
  StoreLE64(options.num_pages, out.data());
  StoreLE64(options.page_size, out.data() + 8);
  StoreLE64(options.cache_pages, out.data() + 16);
  StoreLE64(options.block_size, out.data() + 24);
  StoreLE64(options.insert_reserve, out.data() + 32);
  return out;
}

Result<core::CApproxPir::Options> DecodeMeta(ByteSpan data) {
  if (data.size() < 40) {
    return DataLossError("corrupt state file header");
  }
  core::CApproxPir::Options options;
  options.num_pages = LoadLE64(data.data());
  options.page_size = LoadLE64(data.data() + 8);
  options.cache_pages = LoadLE64(data.data() + 16);
  options.block_size = LoadLE64(data.data() + 24);
  options.insert_reserve = LoadLE64(data.data() + 32);
  return options;
}

Result<std::unique_ptr<Session>> Connect(
    const Flags& flags, const core::CApproxPir::Options& options) {
  const std::string passphrase = flags.Get("passphrase", "shpir");
  SHPIR_ASSIGN_OR_RETURN(crypto::BlobCipher cipher,
                         crypto::BlobCipher::FromPassphrase(passphrase));
  auto session = std::make_unique<Session>(std::move(cipher));
  session->options = options;
  session->state_path = flags.Get("state", "shpir_owner.state");
  SHPIR_ASSIGN_OR_RETURN(
      session->transport,
      net::TcpTransport::Connect(flags.Get("host", "127.0.0.1"),
                                 flags.GetPort("port", 9000)));
  SHPIR_ASSIGN_OR_RETURN(session->disk,
                         net::RemoteDisk::Connect(session->transport.get()));
  SHPIR_ASSIGN_OR_RETURN(
      session->cpu,
      hardware::SecureCoprocessor::Create(
          hardware::HardwareProfile::TwoPartyOwner(8ull * hardware::kGB),
          session->disk.get(), options.page_size, DeviceSeed(passphrase)));
  session->disk->set_accountant(&session->cpu->cost());
  SHPIR_ASSIGN_OR_RETURN(
      session->engine,
      core::CApproxPir::Create(session->cpu.get(), session->options));
  session->cpu->AttachMetrics(&obs::MetricsRegistry::Global());
  session->engine->EnableMetrics(&obs::MetricsRegistry::Global());
  const uint64_t trace_sample = flags.GetU64("trace-sample", 0);
  if (trace_sample > 0) {
    obs::Tracer::Options trace_options;
    trace_options.sample_every = trace_sample;
    session->tracer = std::make_unique<obs::Tracer>(trace_options);
    session->disk->set_tracer(session->tracer.get());
    session->engine->EnableTracing(session->tracer.get());
  }
  const uint64_t profile_sample = flags.GetU64("profile-sample", 0);
  if (profile_sample > 0) {
    obs::Profiler::Options profile_options;
    profile_options.sample_every = profile_sample;
    session->profiler = std::make_unique<obs::Profiler>(profile_options);
    session->engine->EnableProfiling(session->profiler.get());
  }
  return session;
}

Result<std::unique_ptr<Session>> Resume(const Flags& flags) {
  const std::string state_path = flags.Get("state", "shpir_owner.state");
  SHPIR_ASSIGN_OR_RETURN(Bytes file, ReadFile(state_path));
  SHPIR_ASSIGN_OR_RETURN(core::CApproxPir::Options options,
                         DecodeMeta(file));
  SHPIR_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                         Connect(flags, options));
  SHPIR_ASSIGN_OR_RETURN(
      Bytes state,
      session->cipher.Open(ByteSpan(file.data() + 40, file.size() - 40)));
  SHPIR_RETURN_IF_ERROR(session->engine->RestoreState(state));
  return session;
}

Status SaveWithMeta(Session& session) {
  SHPIR_ASSIGN_OR_RETURN(Bytes state, session.engine->SerializeState());
  SHPIR_ASSIGN_OR_RETURN(Bytes sealed,
                         session.cipher.Seal(state, session.cpu->rng()));
  Bytes file = EncodeMeta(session.options);
  file.insert(file.end(), sealed.begin(), sealed.end());
  return WriteFile(session.state_path, file);
}

int CmdInit(const Flags& flags) {
  core::CApproxPir::Options options;
  options.num_pages = flags.GetU64("pages", 0);
  options.page_size = flags.GetU64("page-size", 1024);
  options.cache_pages = flags.GetU64("cache", 64);
  options.privacy_c = flags.GetDouble("c", 2.0);
  options.insert_reserve = flags.GetU64("reserve", 0);
  Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
  if (!slots.ok()) {
    return Fail(slots.status());
  }
  const uint64_t slot_size = 12 + 8 + options.page_size + 32;
  std::printf("geometry: %llu slots x %llu bytes (start the provider "
              "with these)\n",
              (unsigned long long)*slots, (unsigned long long)slot_size);
  Result<std::unique_ptr<Session>> session = Connect(flags, options);
  if (!session.ok()) {
    return Fail(session.status());
  }
  // Freeze the derived block size into the persisted options so later
  // invocations reconstruct the identical geometry.
  (*session)->options.block_size = (*session)->engine->block_size();
  Status status = (*session)->engine->Initialize({});
  if (!status.ok()) {
    return Fail(status);
  }
  status = SaveWithMeta(**session);
  if (!status.ok()) {
    return Fail(status);
  }
  std::printf("initialized: n=%llu B=%zu m=%llu k=%llu c=%.3f\n",
              (unsigned long long)options.num_pages, options.page_size,
              (unsigned long long)options.cache_pages,
              (unsigned long long)(*session)->engine->block_size(),
              (*session)->engine->achieved_privacy());
  return 0;
}

int RunCommand(const std::string& command, const Flags& flags,
               Session& session, const obs::TraceContext& ctx) {
  core::CApproxPir& engine = *session.engine;
  if (command == "get") {
    Result<Bytes> data = engine.TracedRetrieve(flags.GetU64("id", 0), ctx);
    // shpir-lint-allow-next-line(secret-branch): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    if (!data.ok()) {
      // shpir-lint-allow-next-line(secret-arg): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
      return Fail(data.status());
    }
    const auto end = std::find(data->begin(), data->end(), uint8_t{0});
    // shpir-lint-allow-next-line(secret-log): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    std::printf("%.*s\n", static_cast<int>(end - data->begin()),
                reinterpret_cast<const char*>(data->data()));
  } else if (command == "put") {
    const std::string text = flags.Get("data");
    const Status status = engine.Modify(
        flags.GetU64("id", 0), Bytes(text.begin(), text.end()));
    // shpir-lint-allow-next-line(secret-branch): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    if (!status.ok()) {
      // shpir-lint-allow-next-line(secret-arg): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
      return Fail(status);
    }
    std::printf("ok\n");
  } else if (command == "insert") {
    const std::string text = flags.Get("data");
    Result<storage::PageId> id =
        engine.Insert(Bytes(text.begin(), text.end()));
    // shpir-lint-allow-next-line(secret-branch): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    if (!id.ok()) {
      // shpir-lint-allow-next-line(secret-arg): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
      return Fail(id.status());
    }
    // shpir-lint-allow-next-line(secret-log): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    std::printf("id %llu\n", (unsigned long long)*id);
  } else if (command == "remove") {
    const Status status = engine.Remove(flags.GetU64("id", 0));
    // shpir-lint-allow-next-line(secret-branch): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    if (!status.ok()) {
      // shpir-lint-allow-next-line(secret-arg): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
      return Fail(status);
    }
    std::printf("ok\n");
  } else if (command == "stats") {
    const auto& stats = engine.stats();
    std::printf("queries=%llu cache_hits=%llu block_hits=%llu "
                "inserts=%llu removes=%llu modifies=%llu k=%llu c=%.3f\n",
                (unsigned long long)stats.queries,
                (unsigned long long)stats.cache_hits,
                (unsigned long long)stats.block_hits,
                (unsigned long long)stats.inserts,
                (unsigned long long)stats.removes,
                (unsigned long long)stats.modifies,
                (unsigned long long)engine.block_size(),
                engine.achieved_privacy());
    std::fputs(
        obs::RenderTable(obs::MetricsRegistry::Global().Snapshot()).c_str(),
        stdout);
  }
  return 0;
}

int CmdOp(const std::string& command, const Flags& flags) {
  Result<std::unique_ptr<Session>> session = Resume(flags);
  if (!session.ok()) {
    return Fail(session.status());
  }
  int rc;
  {
    // The root span covers the whole command; the context rides every
    // remote disk op to the provider (inert unless sampled).
    obs::TraceSpan root((*session)->tracer.get(), "client_query");
    if (root.context().active()) {
      (*session)->disk->set_trace_context(root.context());
    }
    rc = RunCommand(command, flags, **session, root.context());
    (*session)->disk->clear_trace_context();
  }
  // shpir-lint-allow-next-line(secret-branch, secret-compare): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
  if (rc != 0) {
    return rc;
  }
  const Status saved = SaveWithMeta(**session);
  if (!saved.ok()) {
    return Fail(saved);
  }
  const std::string trace_out = flags.Get("trace-out");
  if (!trace_out.empty() && (*session)->tracer != nullptr) {
    const std::string json =
        obs::ToChromeTraceJson((*session)->tracer->Snapshot());
    const Status written = WriteFile(
        trace_out, ByteSpan(reinterpret_cast<const uint8_t*>(json.data()),
                            json.size()));
    // shpir-lint-allow-next-line(secret-branch): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    if (!written.ok()) {
      // shpir-lint-allow-next-line(secret-arg): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
      return Fail(written);
    }
  }
  const std::string profile_out = flags.Get("profile-out");
  if (!profile_out.empty() && (*session)->profiler != nullptr) {
    const std::string folded = (*session)->profiler->ToCollapsed();
    const Status written = WriteFile(
        profile_out,
        ByteSpan(reinterpret_cast<const uint8_t*>(folded.data()),
                 folded.size()));
    // shpir-lint-allow-next-line(secret-branch): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    if (!written.ok()) {
      // shpir-lint-allow-next-line(secret-arg): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
      return Fail(written);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc < 2 ? "" : argv[1];
  const std::vector<cli::Flag> accepted = AcceptedFlags(command);
  const std::optional<Flags> flags =
      accepted.empty() ? std::nullopt : Flags::Parse(argc, argv, 2, accepted);
  if (!flags || !flags->positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s init|get|put|insert|remove|stats [--flag "
                 "value]...\n",
                 argv[0]);
    return 2;
  }
  if (command == "init") {
    return CmdInit(*flags);
  }
  return CmdOp(command, *flags);
}
