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
//   shpir_provider /tmp/db.bin $slots 1060 9000 &
//   shpir_owner init --port 9000 --pages 1000
//   shpir_owner put --port 9000 --id 7 --data "hello"
//   shpir_owner get --port 9000 --id 7
//
// net::OwnerSession replaces the state file atomically after each
// command. Known limitation: a crash after a command's remote write-back
// but before that save leaves the saved pageMap one round behind the
// provider's disk; closing that gap needs a redo record of the round.

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "core/capprox_pir.h"
#include "net/owner_session.h"
#include "net/tcp_transport.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/page_cipher.h"

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

/// One invocation's owner: the TCP link, the session over it, and the
/// flags' tracer and profiler, which outlive the session's engine.
struct Owner {
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<obs::Tracer> tracer;      // Null unless --trace-sample.
  std::unique_ptr<obs::Profiler> profiler;  // Null unless --profile-sample.
  std::unique_ptr<net::OwnerSession> session;
};

/// Connects to the provider and creates the session for `options` (init)
/// or, when `options` is null, resumes the one in the state file; then
/// wires the global registry and the flags' tracer and profiler in.
Result<std::unique_ptr<Owner>> Connect(
    const Flags& flags, const core::CApproxPir::Options* options) {
  auto owner = std::make_unique<Owner>();
  SHPIR_ASSIGN_OR_RETURN(
      owner->transport,
      net::TcpTransport::Connect(flags.Get("host", "127.0.0.1"),
                                 flags.GetPort("port", 9000)));
  const std::string passphrase = flags.Get("passphrase", "shpir");
  const std::string state_path = flags.Get("state", "shpir_owner.state");
  SHPIR_ASSIGN_OR_RETURN(
      owner->session,
      options != nullptr
          ? net::OwnerSession::Create(owner->transport.get(), *options,
                                      passphrase, state_path)
          : net::OwnerSession::Resume(owner->transport.get(), passphrase,
                                      state_path));
  net::OwnerSession& session = *owner->session;
  session.cpu().AttachMetrics(&obs::MetricsRegistry::Global());
  session.engine().EnableMetrics(&obs::MetricsRegistry::Global());
  const uint64_t trace_sample = flags.GetU64("trace-sample", 0);
  if (trace_sample > 0) {
    obs::Tracer::Options trace_options;
    trace_options.sample_every = trace_sample;
    owner->tracer = std::make_unique<obs::Tracer>(trace_options);
    session.disk().set_tracer(owner->tracer.get());
    session.engine().EnableTracing(owner->tracer.get());
  }
  const uint64_t profile_sample = flags.GetU64("profile-sample", 0);
  if (profile_sample > 0) {
    obs::Profiler::Options profile_options;
    profile_options.sample_every = profile_sample;
    owner->profiler = std::make_unique<obs::Profiler>(profile_options);
    session.engine().EnableProfiling(owner->profiler.get());
  }
  return owner;
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
  std::printf("geometry: %llu slots x %zu bytes (start the provider "
              "with these)\n",
              (unsigned long long)*slots,
              storage::PageCipher::SealedSize(options.page_size));
  Result<std::unique_ptr<Owner>> owner = Connect(flags, &options);
  if (!owner.ok()) {
    return Fail(owner.status());
  }
  net::OwnerSession& session = *(*owner)->session;
  Status status = session.engine().Initialize({});
  if (status.ok()) {
    status = session.Save();
  }
  if (!status.ok()) {
    return Fail(status);
  }
  std::printf("initialized: n=%llu B=%zu m=%llu k=%llu c=%.3f\n",
              (unsigned long long)options.num_pages, options.page_size,
              (unsigned long long)options.cache_pages,
              (unsigned long long)session.engine().block_size(),
              session.engine().achieved_privacy());
  return 0;
}

int RunCommand(const std::string& command, const Flags& flags,
               core::CApproxPir& engine, const obs::TraceContext& ctx) {
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

/// Writes `text` to `path` (the --trace-out and --profile-out files).
Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return out ? OkStatus() : InternalError("cannot write " + path);
}

int CmdOp(const std::string& command, const Flags& flags) {
  Result<std::unique_ptr<Owner>> owner = Connect(flags, nullptr);
  if (!owner.ok()) {
    return Fail(owner.status());
  }
  net::OwnerSession& session = *(*owner)->session;
  int rc;
  {
    // The root span covers the whole command; the context rides every
    // remote disk op to the provider (inert unless sampled).
    obs::TraceSpan root((*owner)->tracer.get(), "client_query");
    if (root.context().active()) {
      session.disk().set_trace_context(root.context());
    }
    rc = RunCommand(command, flags, session.engine(), root.context());
    session.disk().clear_trace_context();
  }
  // shpir-lint-allow-next-line(secret-branch, secret-compare): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
  if (rc != 0) {
    return rc;
  }
  const Status saved = session.Save();
  if (!saved.ok()) {
    return Fail(saved);
  }
  const std::string trace_out = flags.Get("trace-out");
  if (!trace_out.empty() && (*owner)->tracer != nullptr) {
    const Status written = WriteText(
        trace_out, obs::ToChromeTraceJson((*owner)->tracer->Snapshot()));
    // shpir-lint-allow-next-line(secret-branch): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
    if (!written.ok()) {
      // shpir-lint-allow-next-line(secret-arg): operator CLI: owner-side administration output on the operator's own terminal; the provider sees only the PIR stream underneath
      return Fail(written);
    }
  }
  const std::string profile_out = flags.Get("profile-out");
  if (!profile_out.empty() && (*owner)->profiler != nullptr) {
    const Status written =
        WriteText(profile_out, (*owner)->profiler->ToCollapsed());
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
