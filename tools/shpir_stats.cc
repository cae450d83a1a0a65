// Admin CLI: fetches one admin document from a running shpir endpoint
// and prints it. Every document is aggregate and target-independent by
// construction (see docs/OBSERVABILITY.md).
//
//   shpir_stats [hub] [DOC [ARG...]] [--host H] [--port P] [--psk STR]
//               [--watch SECONDS] [--json]
//
// Without `hub` it speaks the storage protocol to a shpir_provider; the
// provider is the untrusted party, so its documents are public. With
// `hub` it performs the hub handshake with the pre-shared key --psk
// (default "shpir") and fetches through the sealed session, so only
// key holders can read, or steer, a hub.
//
// DOC defaults to `stats`; the words after it are its argument. Every
// document is rendered by the endpoint; the CLI prints it verbatim,
// except the controller table.
//   stats [json | table | prometheus]
//                          metrics snapshot; the table, headed by the
//                          build identity, unless --json asks for the
//                          JSON
//   trace [TRACE_ID]       span buffer as Chrome trace JSON; with a
//                          16-hex trace id (from span args or metric
//                          exemplars), only that trace's spans
//   profile [collapsed]    JSON stack table, or flame-graph text
//   slo                    SLO/error-budget state
//   events                 structured event log
//   incidents [ID]         flight-recorder summaries, or one bundle
//   health                 readiness; exits 1 unless "ready":true
//   control [freeze | unfreeze | set-bounds KMIN KMAX]
//                          hub only: the privacy/cost controller's
//                          per-shard table after the action (--json
//                          prints its status JSON)
//
// --watch re-fetches every SECONDS seconds, at most 86400, until
// interrupted; transient failures (endpoint restarting, connection
// refused) are reported and retried, and the tool gives up after 5
// consecutive failures.

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "crypto/secure_random.h"
#include "net/pir_service.h"
#include "net/remote_disk.h"
#include "net/service_hub.h"
#include "net/tcp_transport.h"

namespace {

using namespace shpir;

// The longest --watch period: a day. Larger counts are refused, which
// also keeps std::chrono::seconds, a signed 64-bit count, from wrapping
// negative and turning the watcher into a busy loop.
constexpr uint64_t kMaxWatchSeconds = 86400;

struct Options {
  bool hub = false;
  std::string document = "stats";
  std::string arg;
  std::string host = "127.0.0.1";
  uint16_t port = 9000;
  std::string psk = "shpir";
  uint64_t watch_seconds = 0;
  bool json = false;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Fetches the document once, on a fresh connection. `client_id` names
/// this process's hub session: each fetch re-handshakes under it, which
/// replaces the session instead of adding one.
Result<std::string> Fetch(const Options& options, uint64_t client_id) {
  SHPIR_ASSIGN_OR_RETURN(
      std::unique_ptr<net::TcpTransport> transport,
      net::TcpTransport::Connect(options.host, options.port));
  if (!options.hub) {
    return net::FetchAdmin(*transport, options.document, options.arg);
  }
  Bytes nonce(net::SecureSession::kNonceSize);
  crypto::SecureRandom().Fill(nonce);
  SHPIR_ASSIGN_OR_RETURN(
      Bytes hello,
      transport->RoundTrip(net::ServiceHub::MakeHello(client_id, nonce)));
  const Bytes psk(options.psk.begin(), options.psk.end());
  SHPIR_ASSIGN_OR_RETURN(
      net::SecureSession session,
      net::ServiceHub::CompleteHandshake(hello, psk, client_id, nonce));
  net::TcpTransport* wire = transport.get();
  net::PirServiceClient client(
      std::move(session), [wire, client_id](ByteSpan record) {
        return wire->RoundTrip(net::ServiceHub::MakeData(client_id, record));
      });
  return client.Admin(options.document, options.arg);
}

/// Extracts the numeric/boolean token following `"key":` inside
/// `json[from..to)`. Returns the empty string when absent. Good enough
/// for the controller's closed status schema; not a general parser.
std::string FieldToken(const std::string& json, const std::string& key,
                       size_t from, size_t to) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos || at >= to) {
    return "";
  }
  size_t begin = at + needle.size();
  size_t end = begin;
  while (end < to && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  return json.substr(begin, end - begin);
}

/// Renders the controller status document as a state line plus one row
/// per shard (current k, pending k, c_theory, live c-estimate,
/// cooldown) — the operator's at-a-glance controller view.
void RenderControlTable(const std::string& json) {
  std::printf("controller: frozen=%s ticks=%s clamps=%s bounds=[%s, %s] "
              "c_bound=%s\n",
              FieldToken(json, "frozen", 0, json.size()).c_str(),
              FieldToken(json, "ticks", 0, json.size()).c_str(),
              FieldToken(json, "clamps", 0, json.size()).c_str(),
              FieldToken(json, "k_min", 0, json.size()).c_str(),
              FieldToken(json, "k_max", 0, json.size()).c_str(),
              FieldToken(json, "c_bound", 0, json.size()).c_str());
  std::printf("%6s %6s %9s %9s %11s %9s %9s\n", "shard", "k", "pending",
              "c_theory", "c_estimate", "queue", "cooldown");
  size_t cursor = json.find("\"shards\":[");
  if (cursor == std::string::npos) {
    return;
  }
  const size_t shards_end = json.find("],\"decisions\"", cursor);
  const size_t limit =
      shards_end == std::string::npos ? json.size() : shards_end;
  while (true) {
    const size_t open = json.find('{', cursor);
    if (open == std::string::npos || open >= limit) {
      break;
    }
    const size_t close = json.find('}', open);
    const size_t end = close == std::string::npos ? limit : close;
    std::printf("%6s %6s %9s %9s %11s %9s %9s\n",
                FieldToken(json, "shard", open, end).c_str(),
                FieldToken(json, "k", open, end).c_str(),
                FieldToken(json, "pending_k", open, end).c_str(),
                FieldToken(json, "c_theory", open, end).c_str(),
                FieldToken(json, "c_estimate", open, end).c_str(),
                FieldToken(json, "queue_fraction", open, end).c_str(),
                FieldToken(json, "cooldown", open, end).c_str());
    cursor = end + 1;
  }
}

bool RendersControlTable(const Options& options) {
  return options.document == "control" && !options.json;
}

bool RendersTable(const Options& options) {
  return RendersControlTable(options) ||
         (options.document == "stats" && options.arg == "table");
}

int PollOnce(const Options& options, uint64_t client_id) {
  Result<std::string> body = Fetch(options, client_id);
  if (!body.ok()) {
    return Fail(body.status());
  }
  if (RendersControlTable(options)) {
    RenderControlTable(*body);
    return 0;
  }
  std::fwrite(body->data(), 1, body->size(), stdout);
  if (body->empty() || body->back() != '\n') {
    std::fputc('\n', stdout);
  }
  if (options.document == "health") {
    // Load-balancer convention: nonzero exit when the endpoint does
    // not report itself ready.
    return body->find("\"ready\":true") != std::string::npos ? 0 : 1;
  }
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [hub] [DOC [ARG...]] [--host H] [--port P] "
               "[--psk STR]\n"
               "          [--watch SECONDS] [--json]\n"
               "documents: stats [json | table | prometheus], trace "
               "[TRACE_ID],\n"
               "           profile [collapsed], slo, events, incidents "
               "[ID], health,\n"
               "           control [freeze | unfreeze | set-bounds KMIN "
               "KMAX] (hub only)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  int i = 1;
  if (i < argc && std::string(argv[i]) == "hub") {
    options.hub = true;
    ++i;
  }
  const std::optional<cli::Flags> flags =
      cli::Flags::Parse(argc, argv, i,
                        {{"host", cli::Kind::kText},
                         {"port", cli::Kind::kPort},
                         {"psk", cli::Kind::kText},
                         {"watch", cli::Kind::kCount},
                         {"json", cli::Kind::kSwitch}});
  if (!flags) {
    return Usage(argv[0]);
  }
  options.host = flags->Get("host", options.host);
  options.port = flags->GetPort("port", options.port);
  options.psk = flags->Get("psk", options.psk);
  options.watch_seconds = flags->GetU64("watch", 0);
  if (options.watch_seconds > kMaxWatchSeconds) {
    std::fprintf(stderr, "error: --watch must be at most %llu seconds\n",
                 static_cast<unsigned long long>(kMaxWatchSeconds));
    return Usage(argv[0]);
  }
  options.json = flags->Has("json");
  const std::vector<std::string>& words = flags->positional();
  if (!words.empty()) {
    options.document = words[0];
    for (size_t w = 1; w < words.size(); ++w) {
      options.arg += (w > 1 ? " " : "") + words[w];
    }
  }
  // The endpoint renders every view of "stats"; the default is its
  // table.
  if (options.document == "stats" && options.arg.empty() && !options.json) {
    options.arg = "table";
  }
  const uint64_t client_id = crypto::SecureRandom().NextUint64();
  if (options.watch_seconds == 0) {
    return PollOnce(options, client_id);
  }
  // Watch mode rides out transient failures: an endpoint mid-restart
  // should not kill the watcher, but a dead endpoint should not spin
  // forever either.
  constexpr int kMaxConsecutiveFailures = 5;
  int consecutive_failures = 0;
  bool first = true;
  while (true) {
    // Separate successive tables; error lines separate themselves.
    if (!first && consecutive_failures == 0 && RendersTable(options)) {
      std::printf("---\n");
    }
    first = false;
    const int rc = PollOnce(options, client_id);
    if (rc != 0) {
      if (++consecutive_failures >= kMaxConsecutiveFailures) {
        std::fprintf(stderr, "giving up after %d consecutive failures\n",
                     consecutive_failures);
        return rc;
      }
    } else {
      consecutive_failures = 0;
    }
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(options.watch_seconds));
  }
}
