#include "net/service_hub.h"

#include "crypto/hmac.h"

namespace shpir::net {

namespace {
constexpr uint8_t kHelloTag = 'H';
constexpr uint8_t kDataTag = 'D';
constexpr size_t kNonce = SecureSession::kNonceSize;
}  // namespace

ServiceHub::ServiceHub(
    core::PirEngine* engine, Bytes pre_shared_key, uint64_t rng_seed,
    obs::MetricsRegistry* metrics, obs::Tracer* tracer,
    const obs::AdminRegistry* admin,
    PirServiceServer::KeywordManifestProvider keyword_manifest)
    : engine_(engine),
      pre_shared_key_(std::move(pre_shared_key)),
      tracer_(tracer),
      admin_(admin),
      keyword_manifest_(std::move(keyword_manifest)),
      rng_(rng_seed == 0 ? crypto::SecureRandom()
                         : crypto::SecureRandom(rng_seed)) {
  if (metrics != nullptr) {
    instruments_.hellos =
        metrics->FindOrCreateCounter("shpir_net_hellos_total");
    instruments_.handshake_failures =
        metrics->FindOrCreateCounter("shpir_net_handshake_failures_total");
    instruments_.data_frames =
        metrics->FindOrCreateCounter("shpir_net_data_frames_total");
    instruments_.frames_rejected =
        metrics->FindOrCreateCounter("shpir_net_frames_rejected_total");
    instruments_.frame_bytes_in =
        metrics->FindOrCreateCounter("shpir_net_frame_bytes_in_total");
    instruments_.frame_bytes_out =
        metrics->FindOrCreateCounter("shpir_net_frame_bytes_out_total");
    instruments_.sessions_evicted =
        metrics->FindOrCreateCounter("shpir_net_sessions_evicted_total");
    instruments_.sessions = metrics->FindOrCreateGauge("shpir_net_sessions");
    instruments_.sessions->Set(0.0);
  }
}

Bytes ServiceHub::ClientKey(ByteSpan pre_shared_key, uint64_t client_id) {
  crypto::HmacSha256 kdf(pre_shared_key);
  uint8_t msg[14] = {'c', 'l', 'i', 'e', 'n', 't'};
  StoreLE64(client_id, msg + 6);
  const auto tag = kdf.Compute(ByteSpan(msg, sizeof(msg)));
  return Bytes(tag.begin(), tag.end());
}

Bytes ServiceHub::MakeHello(uint64_t client_id, ByteSpan client_nonce) {
  Bytes frame(1 + 8 + kNonce);
  frame[0] = kHelloTag;
  StoreLE64(client_id, frame.data() + 1);
  std::copy(client_nonce.begin(), client_nonce.end(), frame.begin() + 9);
  return frame;
}

Result<SecureSession> ServiceHub::CompleteHandshake(ByteSpan reply,
                                                    ByteSpan pre_shared_key,
                                                    uint64_t client_id,
                                                    ByteSpan client_nonce) {
  if (reply.size() != 1 + kNonce || reply[0] != kHelloTag) {
    return DataLossError("malformed handshake reply");
  }
  const Bytes key = ClientKey(pre_shared_key, client_id);
  return SecureSession::Establish(
      key, SecureSession::Role::kClient, client_nonce,
      ByteSpan(reply.data() + 1, kNonce));
}

Bytes ServiceHub::MakeData(uint64_t client_id, ByteSpan record) {
  Bytes frame(1 + 8 + record.size());
  frame[0] = kDataTag;
  StoreLE64(client_id, frame.data() + 1);
  std::copy(record.begin(), record.end(), frame.begin() + 9);
  return frame;
}

void ServiceHub::EvictOne() {
  auto victim = servers_.begin();
  for (auto it = servers_.begin(); it != servers_.end(); ++it) {
    if (it->second.last_data < victim->second.last_data) {
      victim = it;
    }
  }
  servers_.erase(victim);
  if (metered()) {
    instruments_.sessions_evicted->Increment();
  }
}

Result<Bytes> ServiceHub::HandleFrame(ByteSpan frame) {
  // Arrival timestamp for the queue-wait span: taken before any lock, so
  // the measured gap covers the wait for the session's lock. Only read
  // when a tracer is attached — the clock read is the whole cost for
  // untraced hubs.
  const uint64_t arrival_ns = tracer_ != nullptr ? obs::Tracer::NowNs() : 0;
  if (metered()) {
    instruments_.frame_bytes_in->Increment(frame.size());
  }
  if (frame.size() < 9) {
    if (metered()) {
      instruments_.frames_rejected->Increment();
    }
    return DataLossError("truncated hub frame");
  }
  const uint64_t client_id = LoadLE64(frame.data() + 1);
  if (frame[0] == kHelloTag) {
    return HandleHello(client_id, frame);
  }
  if (frame[0] == kDataTag) {
    return HandleData(client_id, frame, arrival_ns);
  }
  if (metered()) {
    instruments_.frames_rejected->Increment();
  }
  return InvalidArgumentError("unknown hub frame tag");
}

Result<Bytes> ServiceHub::HandleHello(uint64_t client_id, ByteSpan frame) {
  if (metered()) {
    instruments_.hellos->Increment();
  }
  if (frame.size() != 1 + 8 + kNonce) {
    if (metered()) {
      instruments_.handshake_failures->Increment();
    }
    return DataLossError("malformed HELLO frame");
  }
  const ByteSpan client_nonce(frame.data() + 9, kNonce);
  Bytes server_nonce(kNonce);
  common::MutexLock lock(mutex_);
  rng_.Fill(server_nonce);
  const Bytes key = ClientKey(pre_shared_key_, client_id);
  Result<SecureSession> session = SecureSession::Establish(
      key, SecureSession::Role::kServer, client_nonce, server_nonce);
  if (!session.ok()) {
    if (metered()) {
      instruments_.handshake_failures->Increment();
    }
    return session.status();
  }
  if (servers_.size() >= kMaxSessions && !servers_.contains(client_id)) {
    EvictOne();
  }
  // ADMIN travels inside the sealed session, so only authenticated
  // clients reach the registry's documents.
  servers_[client_id] = Entry{std::make_shared<Session>(
      PirServiceServer(engine_, std::move(session).value(), tracer_, admin_,
                       keyword_manifest_))};
  if (metered()) {
    instruments_.sessions->Set(static_cast<double>(servers_.size()));
  }
  Bytes reply(1 + kNonce);
  reply[0] = kHelloTag;
  std::copy(server_nonce.begin(), server_nonce.end(), reply.begin() + 1);
  if (metered()) {
    instruments_.frame_bytes_out->Increment(reply.size());
  }
  return reply;
}

Result<Bytes> ServiceHub::HandleData(uint64_t client_id, ByteSpan frame,
                                     uint64_t arrival_ns) {
  if (metered()) {
    instruments_.data_frames->Increment();
  }
  std::shared_ptr<Session> session;
  {
    common::MutexLock lock(mutex_);
    const auto it = servers_.find(client_id);
    if (it != servers_.end()) {
      session = it->second.session;
    }
  }
  if (session == nullptr) {
    if (metered()) {
      instruments_.frames_rejected->Increment();
    }
    return FailedPreconditionError("unknown client; handshake first");
  }
  Session& served = *session;
  common::MutexLock session_lock(served.mutex);
  PirServiceServer::QueueTiming timing;
  const PirServiceServer::QueueTiming* timing_ptr = nullptr;
  if (tracer_ != nullptr) {
    timing.arrival_ns = arrival_ns;
    timing.dequeue_ns = obs::Tracer::NowNs();  // Past the session lock.
    timing_ptr = &timing;
  }
  Result<Bytes> reply = served.server.HandleRecord(
      ByteSpan(frame.data() + 9, frame.size() - 9), timing_ptr);
  session_lock.Unlock();
  if (reply.ok()) {
    // The record opened under the session's keys: only a key holder
    // keeps a session from eviction. A session that a HELLO replaced or
    // evicted while this call ran is gone and gets no clock.
    common::MutexLock lock(mutex_);
    const auto it = servers_.find(client_id);
    if (it != servers_.end() && it->second.session == session) {
      it->second.last_data = ++data_clock_;
    }
  }
  if (metered()) {
    if (reply.ok()) {
      instruments_.frame_bytes_out->Increment(reply->size());
    } else {
      instruments_.frames_rejected->Increment();
    }
  }
  return reply;
}

}  // namespace shpir::net
