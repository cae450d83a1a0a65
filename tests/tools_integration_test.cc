// End-to-end integration of the deployment CLIs: launches the real
// shpir_provider binary, drives it with the real shpir_owner binary
// (two-party) or an in-process PirServiceClient (three-party hub), and
// checks data survives restarts and that the admin CLI (shpir_stats)
// and shpir_benchdiff work end to end.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/secure_random.h"
#include "net/pir_service.h"
#include "net/service_hub.h"
#include "net/tcp_transport.h"

namespace shpir {
namespace {

std::string BinDir() {
  // Tests run from build/tests/<binary>; the tools live in build/tools.
  return std::string(TOOLS_DIR);
}

struct CommandResult {
  int exit_code;
  std::string output;
};

CommandResult RunShell(const std::string& command) {
  std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return {-1, "popen failed"};
  }
  std::string output;
  std::array<char, 512> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), output};
}


// Finds and parses the "geometry: X slots x Y bytes" line anywhere in
// the output (stderr/stdout interleaving is not deterministic).
bool ParseGeometry(const std::string& output, uint64_t* slots,
                   uint64_t* slot_size) {
  const size_t pos = output.find("geometry:");
  if (pos == std::string::npos) {
    return false;
  }
  return std::sscanf(output.c_str() + pos,
                     "geometry: %llu slots x %llu bytes",
                     reinterpret_cast<unsigned long long*>(slots),
                     reinterpret_cast<unsigned long long*>(slot_size)) == 2;
}

class ToolsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case directory, and providers on ephemeral ports: ctest
    // runs each case as its own process, concurrently, so nothing may
    // be shared between cases.
    dir_ = ::testing::TempDir() + "/shpir_tools_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RunShell("rm -rf " + dir_ + " && mkdir -p " + dir_);
    disk_ = dir_ + "/disk.bin";
    state_ = dir_ + "/owner.state";
  }

  void TearDown() override {
    StopProvider();
    RunShell("rm -rf " + dir_);
  }

  /// Runs `shpir_provider ARGS` in the background on port 0 and waits,
  /// for at most 10 s, for its "serving on 127.0.0.1:PORT" line.
  ::testing::AssertionResult Launch(const std::string& args) {
    const std::string out = dir_ + "/provider.out";
    const CommandResult launched =
        RunShell(BinDir() + "/shpir_provider " + args + " > " + out +
                 " 2>&1 & echo $!");
    provider_pid_ = std::stoi(launched.output);
    const std::string marker = "serving on 127.0.0.1:";
    std::string text;
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::ifstream in(out);
      text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
      const size_t at = text.find(marker);
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        port_ = static_cast<uint16_t>(
            std::stoul(text.substr(at + marker.size())));
        return ::testing::AssertionSuccess();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return ::testing::AssertionFailure()
           << "provider never reported its port; output: " << text;
  }

  ::testing::AssertionResult StartProvider(uint64_t slots,
                                           uint64_t slot_size,
                                           const std::string& extra_args = "") {
    return Launch(disk_ + " " + std::to_string(slots) + " " +
                  std::to_string(slot_size) + " " + extra_args);
  }

  ::testing::AssertionResult StartHub(const std::string& extra_args = "") {
    return Launch("hub --pages 64 --page-size 128 --cache 8 --psk testpsk " +
                  extra_args);
  }

  /// Three-party client: handshakes with the live hub binary and
  /// returns a sealed-session service client.
  Result<std::unique_ptr<net::PirServiceClient>> ConnectHubClient(
      std::unique_ptr<net::TcpTransport>* transport_out) {
    Result<std::unique_ptr<net::TcpTransport>> transport =
        net::TcpTransport::Connect("127.0.0.1", port_);
    if (!transport.ok()) {
      return transport.status();
    }
    const std::string psk_text = "testpsk";
    const Bytes psk(psk_text.begin(), psk_text.end());
    crypto::SecureRandom rng;
    const uint64_t client_id = rng.NextUint64();
    Bytes nonce(net::SecureSession::kNonceSize);
    rng.Fill(nonce);
    Result<Bytes> hello = (*transport)->RoundTrip(
        net::ServiceHub::MakeHello(client_id, nonce));
    if (!hello.ok()) {
      return hello.status();
    }
    Result<net::SecureSession> session =
        net::ServiceHub::CompleteHandshake(*hello, psk, client_id, nonce);
    if (!session.ok()) {
      return session.status();
    }
    net::TcpTransport* wire = transport->get();
    *transport_out = std::move(transport).value();
    return std::make_unique<net::PirServiceClient>(
        std::move(session).value(), [wire, client_id](ByteSpan record) {
          return wire->RoundTrip(
              net::ServiceHub::MakeData(client_id, record));
        });
  }

  void StopProvider() {
    if (provider_pid_ <= 0) {
      return;
    }
    const std::string pid = std::to_string(provider_pid_);
    RunShell("kill " + pid + " 2>/dev/null");
    provider_pid_ = 0;
    // Bounded wait for the process to go (it is not our child, so it
    // cannot be waited for).
    for (int attempt = 0; attempt < 40; ++attempt) {
      if (RunShell("kill -0 " + pid + " 2>/dev/null").exit_code != 0) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }

  CommandResult Owner(const std::string& args) {
    return RunShell(BinDir() + "/shpir_owner " + args + " --port " +
                    std::to_string(port_) + " --state " + state_ +
                    " --passphrase testpass");
  }

  /// Runs shpir_stats against the running provider; `args` starts with
  /// `hub` for the three-party model.
  CommandResult Stats(const std::string& args) {
    return RunShell(BinDir() + "/shpir_stats " + args + " --port " +
                    std::to_string(port_));
  }

  /// Runs shpir_stats, expects success and `needle` in the output, and
  /// returns the output.
  std::string Document(const std::string& args, const std::string& needle) {
    const CommandResult result = Stats(args);
    EXPECT_EQ(result.exit_code, 0) << args << ": " << result.output;
    EXPECT_NE(result.output.find(needle), std::string::npos)
        << args << ": " << result.output;
    return result.output;
  }

  /// Checks every view of "stats" that `prefix` (empty, or `hub` and
  /// its key) reaches, each rendered by the endpoint.
  void ExpectStatsViews(const std::string& prefix) {
    // The default table is headed by the build identity.
    const std::string table = Document(prefix, "shpir_tcp_frames_total");
    EXPECT_EQ(table.rfind("build: version=", 0), 0u) << table;
    // The registry never carries per-request identifiers.
    EXPECT_EQ(table.find("page_id"), std::string::npos);
    EXPECT_EQ(table.find("request_index"), std::string::npos);
    EXPECT_EQ(Document(prefix + "--json", "").rfind("{\"counters\":[", 0),
              0u);
    EXPECT_EQ(Document(prefix + "stats json", "").rfind("{\"counters\":[", 0),
              0u);
    Document(prefix + "stats prometheus",
             "# TYPE shpir_tcp_frames_total counter");

    // --watch re-polls, separating successive tables.
    const CommandResult watch =
        RunShell("timeout 2.5 " + BinDir() + "/shpir_stats " + prefix +
                 "--watch 1 --port " + std::to_string(port_));
    EXPECT_NE(watch.output.find("shpir_tcp_frames_total"), std::string::npos);
    EXPECT_NE(watch.output.find("---\n"), std::string::npos) << watch.output;

    // The views are document arguments; flags are closed.
    const CommandResult xml = Stats(prefix + "stats xml");
    EXPECT_EQ(xml.exit_code, 1) << xml.output;
    EXPECT_NE(xml.output.find("INVALID_ARGUMENT"), std::string::npos)
        << xml.output;
    EXPECT_EQ(Stats(prefix + "--prometheus").exit_code, 2);
    EXPECT_EQ(Stats(prefix + "--no-such-flag").exit_code, 2);
  }

  /// Runs `shpir_stats PREFIX health` while another client holds an idle
  /// connection to the provider, and expects a ready answer. The CLI
  /// gets 10 s, so a provider that serves one connection at a time
  /// fails the test rather than hanging it.
  void ExpectHealthPastAnIdleConnection(const std::string& prefix) {
    Result<std::unique_ptr<net::TcpTransport>> idle =
        net::TcpTransport::Connect("127.0.0.1", port_);
    ASSERT_TRUE(idle.ok()) << idle.status().ToString();
    const CommandResult health =
        RunShell("timeout 10 " + BinDir() + "/shpir_stats " + prefix +
                 "health --port " + std::to_string(port_));
    EXPECT_EQ(health.exit_code, 0) << health.output;
    EXPECT_NE(health.output.find("\"ready\":true"), std::string::npos)
        << health.output;
  }

  /// The owner's geometry for `pages` x 128B pages, cache 8, c=2: init
  /// prints the numbers even when no provider runs.
  ::testing::AssertionResult Geometry(uint64_t pages, uint64_t* slots,
                                      uint64_t* slot_size) {
    const CommandResult probe = Owner("init --pages " +
                                      std::to_string(pages) +
                                      " --page-size 128 --cache 8");
    if (!ParseGeometry(probe.output, slots, slot_size)) {
      return ::testing::AssertionFailure() << probe.output;
    }
    return ::testing::AssertionSuccess();
  }

  std::string dir_;
  std::string disk_;
  std::string state_;
  uint16_t port_ = 0;
  int provider_pid_ = 0;
};

TEST_F(ToolsIntegrationTest, FullLifecycle) {
  // The geometry for 200 x 256B pages, cache 16, c=2: ask init (it
  // prints the numbers even when the provider is absent).
  const CommandResult probe =
      Owner("init --pages 200 --page-size 256 --cache 16");
  uint64_t slots = 0, slot_size = 0;
  ASSERT_TRUE(ParseGeometry(probe.output, &slots, &slot_size))
      << probe.output;

  ASSERT_TRUE(StartProvider(slots, slot_size));
  const CommandResult init =
      Owner("init --pages 200 --page-size 256 --cache 16");
  ASSERT_EQ(init.exit_code, 0) << init.output;
  ASSERT_NE(init.output.find("initialized"), std::string::npos);

  // Write and read back.
  CommandResult put = Owner("put --id 42 --data secret-report");
  ASSERT_EQ(put.exit_code, 0) << put.output;
  CommandResult get = Owner("get --id 42");
  ASSERT_EQ(get.exit_code, 0) << get.output;
  EXPECT_NE(get.output.find("secret-report"), std::string::npos);

  // Insert, remove.
  CommandResult insert = Owner("insert --data appended");
  ASSERT_EQ(insert.exit_code, 0) << insert.output;
  uint64_t new_id = 0;
  ASSERT_EQ(std::sscanf(insert.output.c_str(), "id %llu",
                        (unsigned long long*)&new_id),
            1);
  CommandResult got_new = Owner("get --id " + std::to_string(new_id));
  EXPECT_NE(got_new.output.find("appended"), std::string::npos);
  CommandResult removed = Owner("remove --id 7");
  ASSERT_EQ(removed.exit_code, 0) << removed.output;
  CommandResult gone = Owner("get --id 7");
  EXPECT_NE(gone.exit_code, 0);

  // Restart the provider: the file-backed disk plus sealed state must
  // carry everything across.
  StopProvider();
  ASSERT_TRUE(StartProvider(slots, slot_size));
  CommandResult after = Owner("get --id 42");
  ASSERT_EQ(after.exit_code, 0) << after.output;
  EXPECT_NE(after.output.find("secret-report"), std::string::npos);
  CommandResult stats = Owner("stats");
  EXPECT_NE(stats.output.find("queries="), std::string::npos);
}

TEST_F(ToolsIntegrationTest, WrongPassphraseRejected) {
  uint64_t slots = 0, slot_size = 0;
  ASSERT_TRUE(Geometry(50, &slots, &slot_size));
  ASSERT_TRUE(StartProvider(slots, slot_size));
  ASSERT_EQ(Owner("init --pages 50 --page-size 128 --cache 8").exit_code,
            0);
  ASSERT_EQ(Owner("put --id 1 --data x").exit_code, 0);
  // Same state file, wrong passphrase.
  const CommandResult wrong =
      RunShell(BinDir() + "/shpir_owner get --id 1 --port " +
               std::to_string(port_) + " --state " + state_ +
               " --passphrase wrongpass");
  EXPECT_NE(wrong.exit_code, 0);
  EXPECT_NE(wrong.output.find("MAC"), std::string::npos) << wrong.output;
}

TEST_F(ToolsIntegrationTest, StatsCliPollsRunningProvider) {
  uint64_t slots = 0, slot_size = 0;
  ASSERT_TRUE(Geometry(50, &slots, &slot_size));
  ASSERT_TRUE(StartProvider(slots, slot_size));
  ASSERT_EQ(Owner("init --pages 50 --page-size 128 --cache 8").exit_code,
            0);
  ASSERT_EQ(Owner("put --id 3 --data hello").exit_code, 0);

  // Provider-side counters moved by the owner's traffic show up.
  const std::string table = Document("", "shpir_provider_requests_total");
  EXPECT_NE(table.find("shpir_disk_reads_total"), std::string::npos);
  ExpectStatsViews("");
}

TEST_F(ToolsIntegrationTest, ProfileAndSloCliAgainstStorageProvider) {
  uint64_t slots = 0, slot_size = 0;
  ASSERT_TRUE(Geometry(50, &slots, &slot_size));
  ASSERT_TRUE(StartProvider(slots, slot_size,
                            "--profile-sample 1 --slo-latency-ms 50 "
                            "--trace-buffer 256 --eventlog 64 "
                            "--incidents 4"));
  ASSERT_EQ(Owner("init --pages 50 --page-size 128 --cache 8").exit_code,
            0);
  ASSERT_EQ(Owner("put --id 3 --data hello").exit_code, 0);
  // A traced read, so the provider's span buffer holds a trace.
  ASSERT_EQ(Owner("get --id 3 --trace-sample 1").exit_code, 0);

  // profile: the JSON schema (sampling config plus a stack table fed by
  // the owner's traffic) and the collapsed flame-graph text. Frame
  // names come from a closed vocabulary, so no page id can appear.
  const std::string json = Document("profile", "\"sample_every\":1");
  EXPECT_NE(json.find("provider_handle"), std::string::npos) << json;
  EXPECT_EQ(json.find("page_id"), std::string::npos);
  Document("profile collapsed", "provider_handle;");

  // slo: taken before any failing request below, so every request so
  // far succeeded: the budget is intact and nothing fires.
  const std::string slo = Document("slo", "\"availability\":");
  EXPECT_NE(slo.find("\"budget_remaining\":1"), std::string::npos) << slo;
  EXPECT_NE(slo.find("\"alert_transitions\":0"), std::string::npos) << slo;

  // trace: the provider's spans of the traced read; with a trace id,
  // only that trace's.
  const std::string trace = Document("trace", "provider_read");
  const std::string key = "\"trace_id\":\"";
  const size_t at = trace.find(key);
  ASSERT_NE(at, std::string::npos) << trace;
  const std::string trace_id = trace.substr(at + key.size(), 16);
  const std::string one = Document("trace " + trace_id, key + trace_id);
  for (size_t pos = one.find(key); pos != std::string::npos;
       pos = one.find(key, pos + 1)) {
    EXPECT_EQ(one.compare(pos + key.size(), 16, trace_id), 0) << one;
  }
  EXPECT_EQ(Stats("trace 0x" + trace_id).output, one);
  EXPECT_NE(Stats("trace not-hex").exit_code, 0);

  Document("events", "provider_started");
  // Admin fetches stay off the data path's SLO: the failed ones above
  // fired no burn alert, so nothing was sealed.
  Document("incidents", "{\"sealed\":0,");
  EXPECT_NE(Stats("incidents 99").exit_code, 0);
  Document("health", "\"role\":\"storage\"");
  EXPECT_NE(Stats("health now").exit_code, 0);

  // The storage provider has no controller, and so no "control".
  const CommandResult control = Stats("control");
  EXPECT_NE(control.exit_code, 0);
  EXPECT_NE(control.output.find("NOT_FOUND"), std::string::npos)
      << control.output;
}

TEST_F(ToolsIntegrationTest, ObservabilityCliSuiteAgainstLiveHub) {
  ASSERT_TRUE(StartHub("--trace-buffer 256 --profile-sample 1 "
                       "--slo-latency-ms 50 --eventlog 64 --incidents 4 "
                       "--control-c-bound 4 --control-interval-ms 60000"));

  // Drive real queries through the sealed session so the hub's
  // profiler, tracer, and SLO tracker all see traffic.
  std::string slo_json;
  {
    std::unique_ptr<net::TcpTransport> transport;
    Result<std::unique_ptr<net::PirServiceClient>> client =
        ConnectHubClient(&transport);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (storage::PageId id = 0; id < 8; ++id) {
      Result<Bytes> page = (*client)->Retrieve(id);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
    }
    Result<std::string> slo = (*client)->Admin("slo");
    ASSERT_TRUE(slo.ok()) << slo.status().ToString();
    slo_json = *slo;
  }
  // Per-shard documents under the fleet rollup, all healthy.
  EXPECT_NE(slo_json.find("\"logical\":"), std::string::npos) << slo_json;
  EXPECT_NE(slo_json.find("\"availability\":"), std::string::npos)
      << slo_json;
  EXPECT_NE(slo_json.find("\"alert_transitions\":0"), std::string::npos)
      << slo_json;

  // shpir_stats hub: every document through the handshake.
  const std::string hub = "hub --psk testpsk ";
  ExpectStatsViews(hub);
  Document(hub + "stats", "shpir_net_hellos_total");
  Document(hub + "profile", "\"stacks\":[");
  Document(hub + "profile collapsed", "engine_round");
  Document(hub + "trace", "\"traceEvents\"");
  Document(hub + "slo", "\"availability\":");
  Document(hub + "events", "shard_runtime_started");
  Document(hub + "incidents", "\"sealed\":");
  Document(hub + "health", "\"ready\":true");

  // control: the per-shard table, then an operator verb that answers
  // with the post-action state.
  const std::string status = Document(hub + "control", "c_estimate");
  EXPECT_NE(status.find("controller: frozen=false"), std::string::npos)
      << status;
  Document(hub + "control freeze", "controller: frozen=true");
  EXPECT_EQ(Document(hub + "control --json", "").rfind("{\"frozen\":true", 0),
            0u);
  EXPECT_NE(Stats(hub + "control set-bounds 8").exit_code, 0);

  // A wrong key cannot read or steer anything: the sealed record fails
  // to authenticate before the document is ever looked up.
  EXPECT_NE(Stats("hub --psk wrongpsk control unfreeze").exit_code, 0);
  Document(hub + "control", "controller: frozen=true");
}

TEST_F(ToolsIntegrationTest, StorageHealthAnswersPastAnIdleConnection) {
  ASSERT_TRUE(StartProvider(16, 64));
  ExpectHealthPastAnIdleConnection("");
}

TEST_F(ToolsIntegrationTest, HubHealthAnswersPastAnIdleConnection) {
  ASSERT_TRUE(StartHub());
  ExpectHealthPastAnIdleConnection("hub --psk testpsk ");
}

// Every CLI refuses a misspelled flag, a non-numeric number and a
// negative one as a usage error (exit 2), before it does anything: no
// provider is needed, and nothing is created.
TEST_F(ToolsIntegrationTest, UsageErrorsExitTwoOnEveryCli) {
  const std::string missing = dir_ + "/missing";
  const std::vector<std::string> commands = {
      // A misspelled --passphrase would seal under the default one.
      "shpir_owner init --pages 8 --pasphrase X --port 1 --state " + state_,
      "shpir_owner init --pages abc --port 1 --state " + state_,
      "shpir_owner init --pages -5 --port 1 --state " + state_,
      "shpir_kv get --store " + missing + " --key k --cahce 8",
      "shpir_kv get --store " + missing + " --key k --cache x",
      "shpir_kv get --store " + missing + " --key k --cache -5",
      "shpir_provider " + missing + "/d.bin 10 100 --trace-bufer 8",
      "shpir_provider " + missing + "/d.bin 10 100 --eventlog x",
      "shpir_provider " + missing + "/d.bin 10 100 --eventlog -5",
      "shpir_provider " + missing + "/d.bin 10 100 70000",
      "shpir_provider hub --pages 8 --shards 0 --psk-typo x",
      "shpir_provider hub --pages 8 --shards 0 --c -1",
      "shpir_stats --port 1 --jsn",
      "shpir_stats --port 1 --watch x",
      // A period past a day is refused, 2^64 - 1 included, which
      // std::chrono::seconds would wrap into a busy loop.
      "shpir_stats --port 1 --watch 86401",
      "shpir_stats --port 1 --watch 18446744073709551615",
      "shpir_stats --port -1",
      "shpir_stats --port 70000",
  };
  for (const std::string& command : commands) {
    // A usage error is reported before any work starts; the timeout
    // turns a CLI that runs on instead into a failure, not a hang.
    const CommandResult result =
        RunShell("timeout 20 " + BinDir() + "/" + command);
    EXPECT_EQ(result.exit_code, 2) << command << ": " << result.output;
  }
  EXPECT_FALSE(std::ifstream(state_).good());
}

class BenchDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case file names: ctest runs each case as its own
    // process, concurrently, so shared paths would race.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    baseline_ = ::testing::TempDir() + "/benchdiff_" + name + "_baseline.json";
    current_ = ::testing::TempDir() + "/benchdiff_" + name + "_current.json";
  }
  void TearDown() override {
    std::remove(baseline_.c_str());
    std::remove(current_.c_str());
  }

  static void WriteReport(const std::string& path, double qps,
                          double p99_ns, double overhead_pct) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema_version\":1,\"benchmark\":\"bench_fixture\","
           "\"git_sha\":\"test\",\"timestamp_utc\":\"2026-01-01T00:00:00Z\","
           "\"params\":{},\"metrics\":["
           "{\"name\":\"qps\",\"value\":" << qps
        << ",\"direction\":\"higher_better\",\"tolerance_pct\":5},"
           "{\"name\":\"p99_ns\",\"value\":" << p99_ns
        << ",\"direction\":\"lower_better\",\"tolerance_pct\":5},"
           "{\"name\":\"overhead_pct\",\"value\":" << overhead_pct
        << ",\"direction\":\"lower_better\",\"tolerance_pct\":0,"
           "\"budget_max\":5}]}";
  }

  CommandResult Diff() {
    return RunShell(BinDir() + "/shpir_benchdiff --baseline " + baseline_ +
                    " --current " + current_);
  }

  std::string baseline_;
  std::string current_;
};

TEST_F(BenchDiffTest, IdenticalReportsPass) {
  WriteReport(baseline_, 1000.0, 500000.0, 1.0);
  WriteReport(current_, 1000.0, 500000.0, 1.0);
  const CommandResult result = Diff();
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("all metrics within tolerance"),
            std::string::npos)
      << result.output;
}

TEST_F(BenchDiffTest, SmallDriftWithinTolerancePasses) {
  WriteReport(baseline_, 1000.0, 500000.0, 1.0);
  // 2% drift on the tolerance-gated metrics, under their 5%; the
  // zero-tolerance overhead budget metric stays flat.
  WriteReport(current_, 980.0, 510000.0, 1.0);
  EXPECT_EQ(Diff().exit_code, 0);
}

TEST_F(BenchDiffTest, InjectedRegressionFailsTheGate) {
  WriteReport(baseline_, 1000.0, 500000.0, 1.0);
  // 20% throughput loss and 25% latency regression: both must trip.
  WriteReport(current_, 800.0, 625000.0, 1.0);
  const CommandResult result = Diff();
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("regressed"), std::string::npos)
      << result.output;
}

TEST_F(BenchDiffTest, BudgetOverrunFailsEvenWithMatchingBaseline) {
  // The overhead budget is absolute: a current value over budget_max
  // fails even when the baseline carried the same (bad) number.
  WriteReport(baseline_, 1000.0, 500000.0, 9.0);
  WriteReport(current_, 1000.0, 500000.0, 9.0);
  EXPECT_EQ(Diff().exit_code, 1);
}

TEST_F(BenchDiffTest, MismatchedBenchmarksAreAUsageError) {
  WriteReport(baseline_, 1000.0, 500000.0, 1.0);
  std::ofstream out(current_, std::ios::trunc);
  out << "{\"schema_version\":1,\"benchmark\":\"other_bench\","
         "\"metrics\":[]}";
  out.close();
  EXPECT_EQ(Diff().exit_code, 2);
}

// The keyword KV CLI: offline build from a TSV, then private lookups
// over a fresh in-process engine — hits, misses, and both map kinds.
TEST(KeywordKvCliTest, BuildAndGetRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/shpir_kv_store";
  RunShell("rm -rf " + dir + " && mkdir -p " + dir);
  const std::string tsv = dir + "/input.tsv";
  {
    std::ofstream out(tsv, std::ios::trunc);
    for (int i = 0; i < 200; ++i) {
      out << "key-" << i << "\tvalue-" << i << "\n";
    }
  }
  for (const std::string kind : {"cuckoo", "fuse"}) {
    const std::string store = dir + "/" + kind;
    RunShell("mkdir -p " + store);
    const CommandResult build = RunShell(
        BinDir() + "/shpir_kv build --in " + tsv + " --store " + store +
        " --kind " + kind + " --page-size 64");
    ASSERT_EQ(build.exit_code, 0) << kind << ": " << build.output;
    EXPECT_NE(build.output.find("built " + kind + " store: 200 keys"),
              std::string::npos)
        << build.output;

    const CommandResult hit = RunShell(
        BinDir() + "/shpir_kv get --store " + store + " --key key-123");
    ASSERT_EQ(hit.exit_code, 0) << kind << ": " << hit.output;
    EXPECT_NE(hit.output.find("value-123"), std::string::npos)
        << hit.output;

    const CommandResult miss = RunShell(
        BinDir() + "/shpir_kv get --store " + store + " --key no-such-key");
    EXPECT_EQ(miss.exit_code, 3) << kind << ": " << miss.output;
    EXPECT_NE(miss.output.find("(not found)"), std::string::npos)
        << miss.output;
  }
  RunShell("rm -rf " + dir);
}

TEST(KeywordKvCliTest, RefusesBadArgs) {
  EXPECT_NE(RunShell(BinDir() + "/shpir_kv").exit_code, 0);
  EXPECT_NE(RunShell(BinDir() + "/shpir_kv build").exit_code, 0);
  const CommandResult bad_kind = RunShell(
      BinDir() + "/shpir_kv bench --keys 10 --kind nope");
  EXPECT_NE(bad_kind.exit_code, 0);
  EXPECT_NE(bad_kind.output.find("unknown --kind"), std::string::npos);
}

TEST_F(ToolsIntegrationTest, ProviderRefusesBadArgs) {
  const CommandResult result = RunShell(BinDir() + "/shpir_provider");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage"), std::string::npos);
}

}  // namespace
}  // namespace shpir
