// perfbench: the repository's end-to-end benchmark. Closed-loop callers
// drive the real serving path (client -> sealed session -> hub ->
// dispatcher -> shard -> engine -> disk) and the two-party owner path
// through the public APIs only, check every payload and the footprint
// the storage provider sees, and print the metrics as one JSON line.
//
//   perfbench --workload hub-tcp-1k --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics on a plain rig: no timing
// decorators, a MetricsRegistry attached the way the shpir_provider and
// shpir_owner tools attach one. --trace 1 builds one decorated rig,
// alternates short chunks with its decorators recording and passing
// through, and reports per-layer times from the decorators and the
// program's own instruments, plus the decorators' cost. README.md
// explains the workloads and every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "hardware/profile.h"
#include "net/pir_service.h"
#include "net/remote_disk.h"
#include "net/secure_channel.h"
#include "net/service_hub.h"
#include "net/storage_server.h"
#include "net/tcp_transport.h"
#include "obs/metrics.h"
#include "seams.h"
#include "shard/sharded_engine.h"
#include "storage/file_disk.h"
#include "storage/metered_disk.h"
#include "storage/page.h"
#include "storage/page_cipher.h"

namespace perfbench {
namespace {

namespace core = shpir::core;
namespace hardware = shpir::hardware;
namespace net = shpir::net;
namespace obs = shpir::obs;
namespace shard = shpir::shard;
namespace storage = shpir::storage;

using Clock = std::chrono::steady_clock;

// --- Inputs derived from the one seed ---------------------------------

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer.
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent sub-seed `stream` of the run's seed.
uint64_t Derive(uint64_t seed, uint64_t stream) {
  return Mix(seed + 0x9e3779b97f4a7c15ULL * (stream + 1));
}

// Sub-seed streams. Callers take kCallerStream + i.
enum Stream : uint64_t {
  kContentStream = 1,
  kEngineStream,
  kHubStream,
  kOwnerDeviceStream,
  kCallerStream = 100,
};

/// Page payloads as a pure function of (seed, id, version), so every
/// Retrieve can be checked without keeping a copy of the database.
class Content {
 public:
  Content(uint64_t seed, size_t page_size)
      : seed_(Derive(seed, kContentStream)), page_size_(page_size) {}

  Bytes Page(PageId id, uint32_t version) const {
    Bytes out(page_size_);
    const uint64_t base = Base(id, version);
    for (size_t i = 0; i < page_size_; i += 8) {
      const uint64_t word = Mix(base + i);
      std::memcpy(out.data() + i, &word, std::min<size_t>(8, page_size_ - i));
    }
    return out;
  }

  bool Matches(PageId id, uint32_t version, ByteSpan data) const {
    if (data.size() != page_size_) {
      return false;
    }
    const uint64_t base = Base(id, version);
    for (size_t i = 0; i < page_size_; i += 8) {
      const uint64_t word = Mix(base + i);
      if (std::memcmp(data.data() + i, &word,
                      std::min<size_t>(8, page_size_ - i)) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  uint64_t Base(PageId id, uint32_t version) const {
    return Mix(seed_ ^ Mix(id * 0x100000001b3ULL + version + 1));
  }

  uint64_t seed_;
  size_t page_size_;
};

struct Op {
  bool modify = false;
  PageId id = 0;
};

/// One caller's request stream: ids uniform over the ids it owns
/// (first, first + stride, ...), a `modify_share` of the operations are
/// Modify, and every Modify is followed by a Retrieve of the same id.
class OpStream {
 public:
  OpStream(uint64_t seed, PageId first, uint64_t stride, uint64_t count,
           double modify_share)
      : state_(seed),
        first_(first),
        stride_(stride),
        count_(count),
        // A Modify always takes two slots of the stream (itself and its
        // read-back), so it is drawn with p / (1 - p) to make p the
        // share of Modify among all operations.
        modify_p_(modify_share / (1.0 - modify_share)) {}

  Op Next() {
    if (readback_) {
      readback_ = false;
      return {false, last_};
    }
    const PageId id = first_ + stride_ * Uniform(count_);
    if (modify_p_ > 0 && Unit() < modify_p_) {
      readback_ = true;
      last_ = id;
      return {true, id};
    }
    return {false, id};
  }

 private:
  uint64_t NextWord() { return Mix(state_ += 0x9e3779b97f4a7c15ULL); }
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(NextWord()) * n) >> 64);
  }
  double Unit() { return static_cast<double>(NextWord() >> 11) * 0x1.0p-53; }

  uint64_t state_;
  PageId first_;
  uint64_t stride_;
  uint64_t count_;
  double modify_p_;
  bool readback_ = false;
  PageId last_ = 0;
};

// --- Workloads ----------------------------------------------------------

enum class Path { kHubTcp, kHubInProcess, kOwnerFile };

struct Geometry {
  uint64_t pages;
  size_t page_size;
  uint64_t cache;  // m, per shard device.
  double c;
  uint64_t shards;
};

struct Workload {
  const char* name;
  Path path;
  int callers;
  double modify_share;
  Geometry full;
  Geometry tiny;  // For the self-tests.
};

// README.md records why each workload exists.
constexpr Workload kWorkloads[] = {
    {"hub-tcp-1k", Path::kHubTcp, 1, 0.0,
     {32768, 1024, 1024, 2.0, 2}, {2048, 1024, 128, 2.0, 2}},
    {"hub-2c-256b", Path::kHubInProcess, 2, 0.2,
     {65536, 256, 2048, 8.0, 2}, {4096, 256, 256, 8.0, 2}},
    {"owner-file-rw", Path::kOwnerFile, 1, 0.3,
     {4096, 1024, 1024, 2.0, 1}, {512, 1024, 128, 2.0, 1}},
};

/// How a run spends its time: a plain run sets up `setups` fresh rigs in
/// turn and measures each one after an untimed warm-up; a traced run
/// warms up its one rig the same way.
struct Schedule {
  int setups;
  double warmup_s;
};
constexpr Schedule kSchedule{10, 0.25};
constexpr Schedule kTinySchedule{2, 0.1};  // For the self-tests.
// Length of the chunks runs are measured in. Short enough that a steal
// episode or a slow spell of the host leaves clean chunks beside it.
constexpr double kChunkSeconds = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  Fault fault = Fault::kNone;
  std::string tmpdir = ".";
};

// --- Rigs -----------------------------------------------------------------

/// One caller's handle on the program's public API.
struct Caller {
  std::function<Result<Bytes>(PageId)> retrieve;
  std::function<Status(PageId, const Bytes&)> modify;
  OpStream stream;
};

/// Timing seams of a traced rig (unused in a plain rig).
struct Seams {
  Meter deliver;    // PirServiceClient's deliver callback (hubs).
  Meter transport;  // Client-side Transport::RoundTrip.
  Meter handler;    // The listener's frame handler, server side.
  Meter engine;     // PirEngine calls under the hub or by the owner.
  Meter disk;       // The provider's FileDisk.

  void Record(bool on) {
    for (Meter* m : {&deliver, &transport, &handler, &engine, &disk}) {
      m->on.store(on, std::memory_order_relaxed);
    }
  }
};

/// A set-up deployment with its callers. The registry is declared in
/// the base so it outlives every instrumented object of a derived rig.
class Rig {
 public:
  virtual ~Rig() = default;

  /// Footprint check after each operation, on the caller's thread; ""
  /// when the operation's footprint matched the paper's.
  virtual std::string CheckOp() { return ""; }

  /// Waits for background work (cover queries) and checks the footprint
  /// of everything since the last call; returns violating rounds. Every
  /// caller must be stopped.
  virtual uint64_t Quiesce(uint64_t ops_since_last) {
    (void)ops_since_last;
    return 0;
  }

  /// k and disk slots of the engine serving the callers (per shard on
  /// hubs).
  uint64_t block_size = 0;
  uint64_t disk_slots = 0;
  obs::MetricsRegistry registry;
  Seams seams;
  std::vector<Caller> callers;
  std::vector<uint32_t> versions;  // Per page; callers own disjoint ids.
};

const Bytes kPsk(32, 0x5a);

/// The loopback link of hub-tcp-1k and owner-file-rw: a TcpFrameListener
/// serving on its own thread and one client connection to it.
struct Loopback {
  ~Loopback() {
    timed_tcp.reset();
    tcp.reset();  // Ends the served connection, so Run() can return.
    if (listener != nullptr) {
      listener->Stop();
    }
    if (server.joinable()) {
      server.join();
    }
  }

  std::unique_ptr<net::TcpFrameListener> listener;
  std::thread server;
  std::unique_ptr<net::TcpTransport> tcp;
  std::unique_ptr<TimedTransport> timed_tcp;
  net::Transport* client = nullptr;  // `tcp`, or its decorator.
};

/// hub-tcp-1k and hub-2c-256b: PirServiceClient -> [TcpTransport ->
/// TcpFrameListener ->] ServiceHub -> ShardedPirEngine.
class HubRig : public Rig {
 public:
  ~HubRig() override {
    callers.clear();
    clients.clear();
    link.reset();
  }

  uint64_t Quiesce(uint64_t ops_since_last) override {
    engine->WaitIdle();
    if (fault == Fault::kExtraRead) {
      // Self-test: one slot read too many on shard 0's disk, which its
      // access trace adds to the last round.
      fault = Fault::kNone;
      storage::Disk* disk = engine->shard_device(0)->disk();
      Bytes slot(disk->slot_size());
      (void)disk->Read(0, slot);
    }
    uint64_t violations = 0;
    for (uint64_t s = 0; s < footprints.size(); ++s) {
      storage::AccessTrace* trace = engine->shard_trace(s);
      uint64_t rounds = 0;
      violations += footprints[s].Check(trace->events(), &rounds);
      trace->Clear();
      // Every operation is one round on every shard, real or cover.
      violations += rounds > ops_since_last ? rounds - ops_since_last
                                            : ops_since_last - rounds;
    }
    return violations;
  }

  std::unique_ptr<shard::ShardedPirEngine> engine;
  std::unique_ptr<TimedEngine> timed_engine;
  std::unique_ptr<net::ServiceHub> hub;
  std::unique_ptr<Loopback> link;  // hub-tcp-1k only.
  std::vector<std::unique_ptr<net::PirServiceClient>> clients;
  std::vector<ShardFootprint> footprints;  // Traced rigs only.
  Fault fault = Fault::kNone;              // Traced rigs only.
};

/// owner-file-rw: the owner's CApproxPir + SecureCoprocessor over
/// RemoteDisk -> TcpTransport -> TcpFrameListener -> StorageServer ->
/// FileDisk.
class OwnerRig : public Rig {
 public:
  ~OwnerRig() override {
    callers.clear();
    timed_engine.reset();
    engine.reset();
    cpu.reset();
    remote.reset();
    link.reset();
    server.reset();
    file.reset();
    if (!path.empty()) {
      std::remove(path.c_str());
    }
  }

  std::string CheckOp() override {
    const uint64_t block = (round % engine->scan_period()) * block_size;
    ++round;
    return CheckProviderRound(footprint->Take(), block, block_size);
  }

  obs::MetricsRegistry provider_registry;
  std::string path;
  std::unique_ptr<storage::FileDisk> file;
  std::unique_ptr<TimedDisk> timed_disk;
  std::unique_ptr<FootprintDisk> footprint;
  std::unique_ptr<FaultDisk> fault;
  std::unique_ptr<storage::MeteredDisk> metered;
  std::unique_ptr<net::StorageServer> server;
  std::unique_ptr<Loopback> link;
  std::unique_ptr<net::RemoteDisk> remote;
  std::unique_ptr<hardware::SecureCoprocessor> cpu;
  std::unique_ptr<core::CApproxPir> engine;
  std::unique_ptr<TimedEngine> timed_engine;
  uint64_t round = 0;
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    Die(what, result.status());
  }
  return std::move(result).value();
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    Die(what, status);
  }
}

/// Wraps the listener's frame handler so each call is timed.
net::TcpFrameListener::Handler Timed(net::TcpFrameListener::Handler inner,
                                     Meter* meter) {
  return [inner = std::move(inner), meter](ByteSpan frame) {
    return meter->Time([&] { return inner(frame); }, kNoBytes);
  };
}

/// Starts `handler` behind a listener on an ephemeral loopback port and
/// connects to it. A traced rig times the handler and the client's
/// round trips.
std::unique_ptr<Loopback> ConnectLoopback(
    net::TcpFrameListener::Handler handler, Seams* traced) {
  auto link = std::make_unique<Loopback>();
  if (traced != nullptr) {
    handler = Timed(std::move(handler), &traced->handler);
  }
  link->listener =
      Must(net::TcpFrameListener::Listen(std::move(handler), 0), "listen");
  net::TcpFrameListener* listener = link->listener.get();
  link->server = std::thread([listener] { listener->Run(); });
  link->tcp = Must(net::TcpTransport::Connect("127.0.0.1", listener->port()),
                   "connect");
  link->client = link->tcp.get();
  if (traced != nullptr) {
    link->timed_tcp =
        std::make_unique<TimedTransport>(link->client, &traced->transport);
    link->client = link->timed_tcp.get();
  }
  return link;
}

std::vector<OpStream> MakeStreams(const Workload& w, const Geometry& g,
                                  uint64_t seed) {
  std::vector<OpStream> streams;
  const uint64_t n = static_cast<uint64_t>(w.callers);
  for (uint64_t i = 0; i < n; ++i) {
    streams.emplace_back(Derive(seed, kCallerStream + i), i, n, g.pages / n,
                         w.modify_share);
  }
  return streams;
}

std::unique_ptr<Rig> SetUpHub(const Workload& w, const Geometry& g,
                              const Args& args, bool traced,
                              const std::vector<storage::Page>& pages,
                              double* setup_s) {
  auto rig = std::make_unique<HubRig>();
  const uint64_t start = NowNs();

  shard::ShardedPirEngine::Options options;
  options.num_pages = g.pages;
  options.page_size = g.page_size;
  options.cache_pages = g.cache;
  options.privacy_c = g.c;
  options.shards = g.shards;
  options.seed = Derive(args.seed, kEngineStream);
  options.enable_traces = traced;
  rig->engine = Must(shard::ShardedPirEngine::Create(options), "create");
  Must(rig->engine->Initialize(pages), "initialize");
  rig->engine->EnableMetrics(&rig->registry);
  core::PirEngine* served = rig->engine.get();
  if (traced) {
    for (uint64_t s = 0; s < rig->engine->shards(); ++s) {
      rig->engine->shard_device(s)->AttachMetrics(&rig->registry);
      const core::CApproxPir* e = rig->engine->shard_engine(s);
      rig->footprints.emplace_back(e->block_size(), e->scan_period());
    }
    rig->timed_engine =
        std::make_unique<TimedEngine>(served, &rig->seams.engine);
    served = rig->timed_engine.get();
    rig->fault = args.fault;
  }
  rig->hub = std::make_unique<net::ServiceHub>(
      served, kPsk, Derive(args.seed, kHubStream), &rig->registry);

  // The relay: frames reach the hub over loopback TCP or in process.
  net::ServiceHub* hub = rig->hub.get();
  std::function<Result<Bytes>(ByteSpan)> relay;
  if (w.path == Path::kHubTcp) {
    rig->link = ConnectLoopback(
        [hub](ByteSpan frame) { return hub->HandleFrame(frame); },
        traced ? &rig->seams : nullptr);
    net::Transport* wire = rig->link->client;
    relay = [wire](ByteSpan frame) { return wire->RoundTrip(frame); };
  } else {
    relay = [hub](ByteSpan frame) { return hub->HandleFrame(frame); };
  }

  std::vector<OpStream> streams = MakeStreams(w, g, args.seed);
  for (int i = 0; i < w.callers; ++i) {
    const uint64_t caller_seed = Derive(args.seed, kCallerStream + i);
    const uint64_t client_id = Mix(caller_seed);
    shpir::crypto::SecureRandom rng(caller_seed);
    Bytes nonce(net::SecureSession::kNonceSize);
    rng.Fill(nonce);
    const Bytes hello =
        Must(relay(net::ServiceHub::MakeHello(client_id, nonce)), "hello");
    net::SecureSession session = Must(
        net::ServiceHub::CompleteHandshake(hello, kPsk, client_id, nonce),
        "handshake");
    net::PirServiceClient::Deliver deliver =
        [relay, client_id](ByteSpan record) {
          return relay(net::ServiceHub::MakeData(client_id, record));
        };
    if (traced) {
      deliver = [inner = std::move(deliver),
                 meter = &rig->seams.deliver](ByteSpan record) {
        // Frame bytes: the DATA frame's 9-byte header plus the records.
        return meter->Time([&] { return inner(record); },
                           [&](const Result<Bytes>& reply) {
                             return 9 + record.size() +
                                    (reply.ok() ? reply->size() : 0);
                           });
      };
    }
    rig->clients.push_back(std::make_unique<net::PirServiceClient>(
        std::move(session), std::move(deliver)));
    net::PirServiceClient* client = rig->clients.back().get();
    rig->callers.push_back(
        {[client](PageId id) { return client->Retrieve(id); },
         [client](PageId id, const Bytes& data) {
           return client->Modify(id, data);
         },
         streams[static_cast<size_t>(i)]});
  }
  *setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  rig->block_size = rig->engine->shard_engine(0)->block_size();
  rig->disk_slots = rig->engine->shard_engine(0)->disk_slots();
  rig->versions.assign(g.pages, 0);
  return rig;
}

std::unique_ptr<Rig> SetUpOwner(const Workload& w, const Geometry& g,
                                const Args& args, bool traced,
                                const std::vector<storage::Page>& pages,
                                double* setup_s) {
  auto rig = std::make_unique<OwnerRig>();
  static int disks = 0;
  rig->path = args.tmpdir + "/perfbench-" + std::to_string(::getpid()) +
              "-" + std::to_string(disks++) + ".disk";
  core::CApproxPir::Options options;
  options.num_pages = g.pages;
  options.page_size = g.page_size;
  options.cache_pages = g.cache;
  options.privacy_c = g.c;
  const uint64_t slots =
      Must(core::CApproxPir::DiskSlots(options), "disk slots");
  // A sealed slot: nonce, then the encrypted id and payload, then the tag.
  const size_t slot_size = storage::PageCipher::kNonceSize + 8 + g.page_size +
                           storage::PageCipher::kTagSize;
  const uint64_t start = NowNs();

  // The provider: FileDisk under the decorators, behind StorageServer.
  rig->file = Must(storage::FileDisk::Create(rig->path, slots, slot_size),
                   "create disk file");
  storage::Disk* disk = rig->file.get();
  if (traced) {
    rig->timed_disk = std::make_unique<TimedDisk>(disk, &rig->seams.disk);
    disk = rig->timed_disk.get();
  }
  rig->footprint = std::make_unique<FootprintDisk>(disk);
  disk = rig->footprint.get();
  if (args.fault != Fault::kNone) {
    rig->fault = std::make_unique<FaultDisk>(disk, args.fault);
    disk = rig->fault.get();
  }
  rig->metered =
      std::make_unique<storage::MeteredDisk>(disk, &rig->provider_registry);
  rig->server = std::make_unique<net::StorageServer>(
      rig->metered.get(), &rig->provider_registry);
  net::StorageServer* server = rig->server.get();
  rig->link = ConnectLoopback(
      [server](ByteSpan frame) -> Result<Bytes> {
        return server->Handle(frame);
      },
      traced ? &rig->seams : nullptr);

  // The owner: engine and device over RemoteDisk, as shpir_owner builds
  // them.
  rig->remote =
      Must(net::RemoteDisk::Connect(rig->link->client), "remote disk");
  rig->cpu = Must(hardware::SecureCoprocessor::Create(
                      hardware::HardwareProfile::TwoPartyOwner(
                          8ull * hardware::kGB),
                      rig->remote.get(), g.page_size,
                      Derive(args.seed, kOwnerDeviceStream)),
                  "device");
  rig->remote->set_accountant(&rig->cpu->cost());
  rig->engine = Must(core::CApproxPir::Create(rig->cpu.get(), options),
                     "engine");
  rig->cpu->AttachMetrics(&rig->registry);
  rig->engine->EnableMetrics(&rig->registry);
  Must(rig->engine->Initialize(pages), "initialize");
  *setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  (void)rig->footprint->Take();  // The bulk load is not a query.

  core::PirEngine* engine = rig->engine.get();
  if (traced) {
    rig->timed_engine =
        std::make_unique<TimedEngine>(engine, &rig->seams.engine);
    engine = rig->timed_engine.get();
  }
  rig->callers.push_back(
      {[engine](PageId id) { return engine->Retrieve(id); },
       [engine](PageId id, const Bytes& data) {
         return engine->Modify(id, data);
       },
       MakeStreams(w, g, args.seed)[0]});
  rig->block_size = rig->engine->block_size();
  rig->disk_slots = rig->engine->disk_slots();
  rig->versions.assign(g.pages, 0);
  return rig;
}

std::unique_ptr<Rig> SetUp(const Workload& w, const Geometry& g,
                           const Args& args, bool traced,
                           const std::vector<storage::Page>& pages,
                           double* setup_s) {
  return w.path == Path::kOwnerFile
             ? SetUpOwner(w, g, args, traced, pages, setup_s)
             : SetUpHub(w, g, args, traced, pages, setup_s);
}

// --- The closed loop ------------------------------------------------------

/// Operations attempted and failed. An operation fails on an error
/// status, a wrong payload or a footprint violation; the three reason
/// counts can add up to more than `failed`.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  uint64_t footprint = 0;

  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    errors += o.errors;
    mismatches += o.mismatches;
    footprint += o.footprint;
  }
};

struct Chunk {
  std::vector<uint64_t> latency_ns;  // One per operation.
  uint64_t elapsed_ns = 0;
  Tally tally;
};

/// One caller's closed loop: the next operation starts when the previous
/// one returned. Only the public call is timed; making payloads and
/// checking results happen outside it.
void RunCaller(Rig& rig, Caller& caller, const Content& content,
               Clock::time_point until, Chunk* out) {
  Bytes payload;
  while (Clock::now() < until) {
    const Op op = caller.stream.Next();
    uint32_t& version = rig.versions[op.id];
    Tally& t = out->tally;
    bool failed = true;
    uint64_t elapsed = 0;
    if (op.modify) {
      payload = content.Page(op.id, version + 1);
      const uint64_t t0 = NowNs();
      const Status status = caller.modify(op.id, payload);
      elapsed = NowNs() - t0;
      if (status.ok()) {
        ++version;
        failed = false;
      } else {
        ++t.errors;
      }
    } else {
      const uint64_t t0 = NowNs();
      const Result<Bytes> data = caller.retrieve(op.id);
      elapsed = NowNs() - t0;
      if (!data.ok()) {
        ++t.errors;
      } else if (!content.Matches(op.id, version, *data)) {
        ++t.mismatches;
      } else {
        failed = false;
      }
    }
    const std::string violation = rig.CheckOp();
    if (!violation.empty()) {
      if (t.footprint == 0) {
        std::fprintf(stderr, "perfbench: footprint violation: %s\n",
                     violation.c_str());
      }
      ++t.footprint;
      failed = true;
    }
    t.failed += failed ? 1 : 0;
    ++t.attempted;
    out->latency_ns.push_back(elapsed);
  }
}

/// Runs every caller of `rig` for `seconds` (one thread per caller when
/// there are several), then checks the rig's footprint.
Chunk RunChunk(Rig& rig, const Content& content, double seconds) {
  Chunk chunk;
  const uint64_t start = NowNs();
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  if (rig.callers.size() == 1) {
    RunCaller(rig, rig.callers[0], content, until, &chunk);
  } else {
    std::vector<Chunk> parts(rig.callers.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < rig.callers.size(); ++i) {
      threads.emplace_back([&rig, &content, until, &parts, i] {
        RunCaller(rig, rig.callers[i], content, until, &parts[i]);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (const Chunk& part : parts) {
      chunk.latency_ns.insert(chunk.latency_ns.end(),
                              part.latency_ns.begin(), part.latency_ns.end());
      chunk.tally.Add(part.tally);
    }
  }
  chunk.elapsed_ns = NowNs() - start;
  const uint64_t violations = rig.Quiesce(chunk.tally.attempted);
  chunk.tally.footprint += violations;
  chunk.tally.failed += violations;
  return chunk;
}

// --- Reporting --------------------------------------------------------------

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t at = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(at), v.end());
  return static_cast<double>(v[at]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// CPU time of the whole VM so far, in clock ticks summed over its CPUs:
/// the time they ran anything, and the time the hypervisor kept them
/// from running while they had work (steal).
struct CpuTicks {
  double busy = 0;
  double steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return ticks;  // No steal accounting: every chunk counts as clean.
  }
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                  &nice, &system, &idle, &iowait, &irq, &softirq,
                  &steal) == 8) {
    ticks.busy = static_cast<double>(user + nice + system + irq + softirq);
    ticks.steal = static_cast<double>(steal);
  }
  std::fclose(f);
  return ticks;
}

/// Share of the CPU time the VM's threads wanted between two readings
/// that the hypervisor gave to other guests instead.
double StolenShare(const CpuTicks& before, const CpuTicks& after) {
  const double steal = after.steal - before.steal;
  return Ratio(steal, steal + after.busy - before.busy);
}

/// The chunks the end-to-end figures are taken from: those during which
/// the hypervisor stole at most kCleanStolenShare of the CPU time the VM
/// wanted, or, when fewer than a third of the chunks are that clean, the
/// third with the least steal. Under steal each hand-over between threads
/// waits for the hypervisor to run the CPU it wakes, so a stolen chunk
/// measures the host rather than the program (README.md, Noise).
std::vector<size_t> CleanChunks(const std::vector<double>& stolen) {
  constexpr double kCleanStolenShare = 0.1;
  std::vector<size_t> order(stolen.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return stolen[a] < stolen[b];
  });
  size_t keep = (order.size() + 2) / 3;
  while (keep < order.size() && stolen[order[keep]] <= kCleanStolenShare) {
    ++keep;
  }
  order.resize(keep);
  return order;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Registry growth over the traced chunks, from snapshots taken around
/// each one. Only sums and counts are used: the histograms' quantiles
/// carry up to 25% bucket error.
class Delta {
 public:
  void Add(const obs::MetricsSnapshot& before,
           const obs::MetricsSnapshot& after) {
    for (const auto& c : after.counters) {
      counters_[c.name] += static_cast<double>(c.value);
    }
    for (const auto& c : before.counters) {
      counters_[c.name] -= static_cast<double>(c.value);
    }
    for (const auto& h : after.histograms) {
      sums_[h.name] += static_cast<double>(h.sum);
      counts_[h.name] += static_cast<double>(h.count);
    }
    for (const auto& h : before.histograms) {
      sums_[h.name] -= static_cast<double>(h.sum);
      counts_[h.name] -= static_cast<double>(h.count);
    }
  }
  double Counter(const std::string& name) const { return Get(counters_, name); }
  double Sum(const std::string& name) const { return Get(sums_, name); }
  double Count(const std::string& name) const { return Get(counts_, name); }
  double Phase(const char* phase) const {
    return Sum(std::string("shpir_engine_phase_") + phase + "_ns");
  }

 private:
  static double Get(const std::map<std::string, double>& m,
                    const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> counters_;
  std::map<std::string, double> sums_;
  std::map<std::string, double> counts_;
};

/// Per-layer metrics of the traced rig over `ops` operations whose
/// latencies sum to `latency_ns`, plus the self-time table rows.
std::vector<Metric> LayerMetrics(const Workload& w, const Rig& rig,
                                 const Delta& d, double ops,
                                 double latency_ns,
                                 std::vector<Metric>* self_time) {
  const Seams& s = rig.seams;
  const auto ns = [](const Meter& m) {
    return static_cast<double>(m.ns.load());
  };
  const auto per_op_us = [ops](double total_ns) {
    return Ratio(total_ns, ops) * 1e-3;
  };
  const bool hub = w.path != Path::kOwnerFile;
  const bool tcp = w.path != Path::kHubInProcess;

  const double rounds = d.Count("shpir_engine_query_latency_ns");
  const double crypto_ns = d.Phase("decrypt") + d.Phase("reencrypt");
  const double other_ns = d.Phase("pagemap") + d.Phase("evict");
  const double round_us =
      hub ? Ratio(d.Sum("shpir_engine_query_latency_ns"), rounds) * 1e-3
          : Ratio(ns(s.engine), static_cast<double>(s.engine.calls)) * 1e-3;
  const double client_us = hub ? per_op_us(latency_ns - ns(s.deliver)) : 0;
  const double transport_us =
      tcp ? per_op_us(ns(s.transport) - ns(s.handler)) : 0;
  const double hub_us =
      !hub ? 0
           : per_op_us((tcp ? ns(s.handler) : ns(s.deliver)) - ns(s.engine));
  const double provider_us = hub ? 0 : per_op_us(ns(s.handler) - ns(s.disk));
  const double fanout_us = hub ? per_op_us(ns(s.engine)) - round_us : 0;
  const double crypto_us = Ratio(crypto_ns, rounds) * 1e-3;
  // Disk time per operation: all of an operation's rounds on hubs (one
  // per shard), the provider's FileDisk calls on the owner path.
  const double disk_per_op_us =
      hub ? per_op_us(d.Phase("block_read") + d.Phase("writeback"))
          : per_op_us(ns(s.disk));
  const double pages = d.Counter("shpir_hw_pages_sealed_total") +
                       d.Counter("shpir_hw_pages_opened_total");
  const double bytes = static_cast<double>(
      tcp ? s.transport.bytes.load() : s.deliver.bytes.load());

  // Self time along the blocking path of one operation: on hubs only the
  // real query's round blocks the caller, and cover rounds cost the same.
  const double blocking_rounds = hub ? 1.0 : Ratio(rounds, ops);
  const double disk_self_us =
      hub ? Ratio(d.Phase("block_read") + d.Phase("writeback"), rounds) * 1e-3
          : disk_per_op_us;
  *self_time = {
      {"client", client_us, "us"},
      {"transport", transport_us, "us"},
      {"hub", hub_us, "us"},
      {"provider", provider_us, "us"},
      {"shard", fanout_us, "us"},
      {"crypto", crypto_us * blocking_rounds, "us"},
      {"disk", disk_self_us, "us"},
      {"engine_other", Ratio(other_ns, rounds) * 1e-3 * blocking_rounds,
       "us"},
  };
  double attributed = 0;
  for (const Metric& m : *self_time) {
    attributed += m.value;
  }
  const double mean_latency_us = per_op_us(latency_ns);
  const double unattributed_us = mean_latency_us - attributed;

  return {
      {"net.client_us", client_us, "us"},
      {"net.transport_us", transport_us, "us"},
      {"net.round_trips_per_op",
       tcp ? Ratio(static_cast<double>(s.transport.calls), ops) : 0, "count"},
      {"net.bytes_per_op", Ratio(bytes, ops), "bytes"},
      {"net.hub_us", hub_us, "us"},
      {"net.provider_us", provider_us, "us"},
      {"shard.fanout_us", fanout_us, "us"},
      {"shard.queue_wait_us",
       hub ? Ratio(d.Sum("shpir_shard_queue_wait_ns"),
                   d.Count("shpir_shard_queue_wait_ns")) *
                 1e-3
           : 0,
       "us"},
      {"shard.rounds_per_op", hub ? Ratio(rounds, ops) : 0, "count"},
      {"core.round_us", round_us, "us"},
      {"core.block_size_k", static_cast<double>(rig.block_size), "count"},
      {"hardware.crypto_us", crypto_us, "us"},
      {"hardware.pages_per_op", Ratio(pages, ops), "count"},
      {"storage.disk_us", disk_per_op_us, "us"},
      {"storage.disk_calls_per_op",
       hub ? Ratio(d.Counter("shpir_hw_seeks_total"), ops)
           : Ratio(static_cast<double>(s.disk.calls), ops),
       "count"},
      {"storage.disk_bytes_per_op",
       hub ? Ratio(d.Counter("shpir_hw_disk_bytes_total"), ops)
           : Ratio(static_cast<double>(s.disk.bytes), ops),
       "bytes"},
      {"traced_latency_us", mean_latency_us, "us"},
      {"unattributed_us", unattributed_us, "us"},
  };
}

void PrintJson(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintTally(const Tally& t) {
  std::printf(
      "operations: attempted %llu, failed %llu (errors %llu, wrong payloads "
      "%llu, footprint violations %llu), error_rate %.6f\n",
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.failed),
      static_cast<unsigned long long>(t.errors),
      static_cast<unsigned long long>(t.mismatches),
      static_cast<unsigned long long>(t.footprint),
      Ratio(static_cast<double>(t.failed),
            static_cast<double>(t.attempted)));
}

void PrintEngine(const Rig& rig) {
  std::printf("engine: k=%llu, %llu disk slots per device\n",
              static_cast<unsigned long long>(rig.block_size),
              static_cast<unsigned long long>(rig.disk_slots));
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// --- The two kinds of run ---------------------------------------------------

/// End-to-end metrics from plain rigs. The run is split into segments,
/// each on a freshly set-up rig, so set-up is timed many times across the
/// run and no one rig's thread placement or one host episode decides the
/// result. Each segment is measured in short chunks; throughput and the
/// latency percentiles are medians over the chunks CleanChunks keeps.
int RunPlain(const Workload& w, const Geometry& g, const Args& args,
             const Schedule& schedule, const Content& content,
             const std::vector<storage::Page>& pages) {
  const double segment_s = args.seconds / schedule.setups;
  const int chunks =
      std::max(1, static_cast<int>(std::lround(segment_s / kChunkSeconds)));
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> stolen;
  Tally tally;
  double ops = 0;
  double elapsed_s = 0;
  for (int segment = 0; segment < schedule.setups; ++segment) {
    double seconds = 0;
    std::unique_ptr<Rig> rig = SetUp(w, g, args, /*traced=*/false, pages,
                                     &seconds);
    setups.push_back(seconds);
    if (segment == 0) {
      PrintEngine(*rig);
    }
    tally.Add(RunChunk(*rig, content, schedule.warmup_s).tally);
    for (int i = 0; i < chunks; ++i) {
      const CpuTicks before = ReadCpuTicks();
      const Chunk c = RunChunk(*rig, content, segment_s / chunks);
      stolen.push_back(StolenShare(before, ReadCpuTicks()));
      tally.Add(c.tally);
      const double s = static_cast<double>(c.elapsed_ns) * 1e-9;
      rates.push_back(static_cast<double>(c.latency_ns.size()) / s);
      p50s.push_back(Percentile(c.latency_ns, 0.50) * 1e-6);
      p90s.push_back(Percentile(c.latency_ns, 0.90) * 1e-6);
      ops += static_cast<double>(c.latency_ns.size());
      elapsed_s += s;
    }
  }

  const std::vector<size_t> clean = CleanChunks(stolen);
  const auto median_of = [&clean](const std::vector<double>& v) {
    std::vector<double> kept;
    for (size_t i : clean) {
      kept.push_back(v[i]);
    }
    return Median(kept);
  };
  const std::vector<Metric> metrics = {
      {"throughput_ops", median_of(rates), "ops/s"},
      {"latency_p50_ms", median_of(p50s), "ms"},
      {"latency_p90_ms", median_of(p90s), "ms"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
  std::printf("measured %.0f operations in %.3f s over %zu chunks "
              "(%.1f ops/s overall); medians over the %zu chunks with the "
              "least steal (median stolen share %.3f, highest kept %.3f); "
              "set-up times:",
              ops, elapsed_s, rates.size(), ops / elapsed_s, clean.size(),
              Median(stolen), stolen[clean.back()]);
  for (double s : setups) {
    std::printf(" %.4f", s);
  }
  std::printf(" s\n");
  // error_rate is printed but kept out of the JSON metrics: it is 0 on
  // a correct program, and the JSON's attempted/failed carry it.
  std::vector<Metric> table = metrics;
  table.push_back({"error_rate",
                   Ratio(static_cast<double>(tally.failed),
                         static_cast<double>(tally.attempted)),
                   "ratio"});
  PrintTable("end-to-end (plain run):", table);
  PrintTally(tally);
  PrintJson(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

/// Per-layer metrics from one decorated rig. Chunks with the decorators
/// recording alternate with chunks where they pass calls through, so
/// their cost (trace_overhead_pct) is measured under the same
/// conditions; the per-layer numbers come from the recording chunks.
int RunTraced(const Workload& w, const Geometry& g, const Args& args,
              const Schedule& schedule, const Content& content,
              const std::vector<storage::Page>& pages) {
  double unused = 0;
  std::unique_ptr<Rig> rig =
      SetUp(w, g, args, /*traced=*/true, pages, &unused);
  PrintEngine(*rig);
  Tally tally = RunChunk(*rig, content, schedule.warmup_s).tally;

  Delta delta;
  std::vector<double> overheads;
  double ops = 0;
  double latency_ns = 0;
  double traced_s = 0;
  for (int pair = 0; traced_s < 0.5 * args.seconds; ++pair) {
    double rate[2] = {0, 0};  // Indexed by "recording".
    for (int i = 0; i < 2; ++i) {
      // Alternate which half of a pair goes first.
      const bool on = (i == 0) == (pair % 2 == 0);
      const obs::MetricsSnapshot before = rig->registry.Snapshot();
      rig->seams.Record(on);
      const Chunk c = RunChunk(*rig, content, kChunkSeconds);
      rig->seams.Record(false);
      tally.Add(c.tally);
      rate[on] = static_cast<double>(c.latency_ns.size()) /
                 static_cast<double>(c.elapsed_ns);
      if (on) {
        delta.Add(before, rig->registry.Snapshot());
        ops += static_cast<double>(c.latency_ns.size());
        for (uint64_t l : c.latency_ns) {
          latency_ns += static_cast<double>(l);
        }
        traced_s += static_cast<double>(c.elapsed_ns) * 1e-9;
      }
    }
    overheads.push_back(100.0 * (1.0 - Ratio(rate[1], rate[0])));
  }

  std::vector<Metric> self_time;
  std::vector<Metric> layers =
      LayerMetrics(w, *rig, delta, ops, latency_ns, &self_time);
  layers.push_back({"trace_overhead_pct", Median(overheads), "%"});
  rig.reset();

  std::printf("traced %.0f operations in %.3f s (%.1f ops/s)\n", ops,
              traced_s, ops / traced_s);
  PrintTable("per layer (traced run):", layers);
  PrintTable("self time per operation on the blocking path (with "
             "unattributed_us, sums to traced_latency_us):",
             self_time);
  PrintTally(tally);
  PrintJson(tally, layers);
  return tally.failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
      "                 [--tiny] [--fault none|bitflip|extra-read]\n"
      "                 [--tmpdir DIR]\n"
      "workloads: hub-tcp-1k hub-2c-256b owner-file-rw\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--tmpdir") {
      args->tmpdir = value;
    } else if (flag == "--fault") {
      if (value == "bitflip") {
        args->fault = Fault::kBitFlip;
      } else if (value == "extra-read") {
        args->fault = Fault::kExtraRead;
      } else if (value != "none") {
        return false;
      }
    } else {
      return false;
    }
  }
  return args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) {
      w = &candidate;
    }
  }
  if (w == nullptr) {
    return Usage();
  }
  // The hub workloads check the footprint in the traced run only, and
  // their disks are reachable only through the shard devices.
  if (w->path != Path::kOwnerFile &&
      (args.fault == Fault::kBitFlip ||
       (args.fault == Fault::kExtraRead && !args.trace))) {
    std::fprintf(stderr, "perfbench: on hub workloads --fault supports "
                         "only extra-read, with --trace 1\n");
    return 2;
  }
  const Geometry& g = args.tiny ? w->tiny : w->full;
  const Schedule& schedule = args.tiny ? kTinySchedule : kSchedule;
  std::filesystem::create_directories(args.tmpdir);

  // The program receives only these generated inputs.
  const Content content(args.seed, g.page_size);
  std::vector<storage::Page> pages;
  pages.reserve(g.pages);
  for (PageId id = 0; id < g.pages; ++id) {
    pages.emplace_back(id, content.Page(id, 0));
  }
  std::printf(
      "workload %s seed %llu: n=%llu x %zu B, m=%llu per device, c=%.1f, "
      "S=%llu, %d caller(s), %.0f%% Modify; %s run of %.1f s\n",
      w->name, static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(g.pages), g.page_size,
      static_cast<unsigned long long>(g.cache), g.c,
      static_cast<unsigned long long>(g.shards), w->callers,
      100.0 * w->modify_share, args.trace ? "traced" : "plain", args.seconds);
  return args.trace ? RunTraced(*w, g, args, schedule, content, pages)
                    : RunPlain(*w, g, args, schedule, content, pages);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
