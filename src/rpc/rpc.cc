#include "src/rpc/rpc.h"

#include <algorithm>
#include <string_view>

#include "src/wire/xmlrpc.h"

namespace keypad {

namespace {
// Sealed-envelope framing: magic || u16 device-id length || device id ||
// sealed payload. Anything not starting with the magic is plaintext.
constexpr char kEnvelopeMagic[] = "KPS1";
constexpr size_t kMagicLen = 4;

std::string MakeEnvelope(const std::string& device_id, const Bytes& sealed) {
  std::string out(kEnvelopeMagic, kMagicLen);
  out.push_back(static_cast<char>(device_id.size() >> 8));
  out.push_back(static_cast<char>(device_id.size() & 0xFF));
  out += device_id;
  out.append(sealed.begin(), sealed.end());
  return out;
}

bool IsEnvelope(const std::string& message) {
  return message.size() > kMagicLen + 2 &&
         message.compare(0, kMagicLen, kEnvelopeMagic) == 0;
}

struct Envelope {
  std::string device_id;
  Bytes sealed;
};

Result<Envelope> ParseEnvelope(const std::string& message) {
  if (!IsEnvelope(message)) {
    return InvalidArgumentError("rpc: not a sealed envelope");
  }
  size_t id_len = (static_cast<uint8_t>(message[kMagicLen]) << 8) |
                  static_cast<uint8_t>(message[kMagicLen + 1]);
  if (message.size() < kMagicLen + 2 + id_len) {
    return DataLossError("rpc: truncated envelope");
  }
  Envelope env;
  env.device_id = message.substr(kMagicLen + 2, id_len);
  env.sealed.assign(message.begin() + static_cast<long>(kMagicLen + 2 + id_len),
                    message.end());
  return env;
}

// Request frame (DESIGN.md §14), carried *inside* the sealed envelope (the
// server strips it after opening the channel): magic || u64 client id ||
// u64 sequence number (the at-most-once dedup key) || u64 absolute
// deadline in virtual nanoseconds (0 = none) || u8 priority class, then
// the encoded call. Every client emits it; a request without this complete
// header is malformed.
constexpr char kRequestFrameMagic[] = "KPR2";
constexpr size_t kRequestFrameLen = 4 + 8 + 8 + 8 + 1;

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t ParseU64(const std::string& s, size_t offset) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<uint8_t>(s[offset + i]);
  }
  return v;
}

struct FrameHeader {
  ReplyCache::RequestKey key;
  uint64_t deadline_nanos = 0;  // 0 = no deadline on the wire.
  RpcPriority priority = RpcPriority::kDemand;
};

bool ParseFrameHeader(const std::string& request, FrameHeader* header) {
  if (request.size() < kRequestFrameLen ||
      request.compare(0, 4, kRequestFrameMagic) != 0) {
    return false;
  }
  header->key.first = ParseU64(request, 4);
  header->key.second = ParseU64(request, 12);
  header->deadline_nanos = ParseU64(request, 20);
  uint8_t priority = static_cast<uint8_t>(request[28]);
  // An unknown class degrades to demand — never shed a request just
  // because we can't classify it.
  header->priority = priority <= static_cast<uint8_t>(RpcPriority::kBackground)
                         ? static_cast<RpcPriority>(priority)
                         : RpcPriority::kDemand;
  return true;
}

// The encoded call behind a parsed frame header.
std::string_view FramedCall(const std::string& request) {
  return std::string_view(request).substr(kRequestFrameLen);
}

// Process-wide client-id allocator. Construction order inside the
// simulation is deterministic, so ids are reproducible run to run.
uint64_t g_next_client_id = 1;

uint64_t NextClientId() { return g_next_client_id++; }
}  // namespace

void ResetRpcClientIdsForTesting() { g_next_client_id = 1; }

void RpcServer::RegisterMethod(const std::string& name, Handler handler) {
  handlers_[name] = [handler = std::move(handler)](
                        const WireValue::Array& params, Responder respond) {
    respond(handler(params));
  };
}

void RpcServer::RegisterAsyncMethod(const std::string& name,
                                    AsyncHandler handler) {
  handlers_[name] = std::move(handler);
}

void RpcServer::EnableChannelSecurity(ChannelLookup lookup,
                                      SecureRandom* rng) {
  channel_lookup_ = std::move(lookup);
  channel_rng_ = rng;
}

void RpcServer::set_admission(AdmissionOptions admission) {
  admission_ = admission;
  admission_.enabled = AdmissionEnabledEnv(admission.enabled);
}

Status RpcServer::AdmitAtArrival(RpcPriority priority,
                                 uint64_t deadline_nanos) {
  SimTime now = queue_->Now();
  SimDuration wait =
      busy_until_ > now ? busy_until_ - now : SimDuration(0);
  SimDuration sojourn = wait + service_time_;

  // CoDel-style overload clock: what matters is *sustained* time above
  // the sojourn target, not an instantaneous burst — a flash crowd that
  // drains within the interval never sheds anything.
  if (sojourn > admission_.target_sojourn) {
    if (!above_target_) {
      above_target_ = true;
      above_since_ = now;
    }
    if (!overloaded_ && now - above_since_ >= admission_.overload_interval) {
      overloaded_ = true;
      ++overload_events_;
    }
  } else {
    above_target_ = false;
    overloaded_ = false;
  }

  // Work that would finish past its own deadline is dead on arrival:
  // reject it now, before it occupies a service slot.
  if (deadline_nanos != 0 &&
      (now + sojourn).nanos() > static_cast<int64_t>(deadline_nanos)) {
    ++deadline_expired_;
    return ResourceExhaustedError(
        "rpc: REJECTED expired (would finish past deadline)");
  }

  uint64_t& shed = priority == RpcPriority::kDemand     ? shed_demand_
                   : priority == RpcPriority::kPrefetch ? shed_prefetch_
                                                        : shed_background_;
  if (queue_depth_ >= admission_.max_queue_depth) {
    ++shed;
    return ResourceExhaustedError(std::string("rpc: REJECTED queue full (") +
                                  RpcPriorityName(priority) + ")");
  }
  if (overloaded_) {
    double slack = priority == RpcPriority::kDemand
                       ? admission_.demand_slack
                   : priority == RpcPriority::kPrefetch
                       ? admission_.prefetch_slack
                       : admission_.background_slack;
    double limit =
        static_cast<double>(admission_.target_sojourn.nanos()) * slack;
    if (static_cast<double>(sojourn.nanos()) > limit) {
      ++shed;
      return ResourceExhaustedError(std::string("rpc: REJECTED overload (") +
                                    RpcPriorityName(priority) + ")");
    }
  }
  return Status::Ok();
}

void RpcServer::HandleRequestAsync(const std::string& request_raw,
                                   std::function<void(std::string)> done) {
  if (down_) {
    // Crashed process: the request is swallowed whole. The sender's
    // per-attempt timeout is its only signal.
    ++requests_dropped_;
    return;
  }
  // Admission control needs the priority/deadline fields of the request
  // frame, which sealed envelopes hide inside the ciphertext — those
  // queue as before and only plaintext-framed requests are shed here.
  FrameHeader header;
  bool framed =
      !IsEnvelope(request_raw) && ParseFrameHeader(request_raw, &header);
  if (admission_.enabled && framed) {
    Status verdict = AdmitAtArrival(header.priority, header.deadline_nanos);
    if (!verdict.ok()) {
      // Cheap explicit rejection: no busy-clock charge, no handler, no
      // audit row owed (no key material leaves on a REJECTED reply).
      done(EncodeFault(DetectCodec(FramedCall(request_raw)),
                       std::move(verdict)));
      return;
    }
  }
  // Queue the request on this server's busy-clock instead of advancing the
  // global clock: concurrent requests to one server serialize behind its
  // service_time while independent servers overlap in virtual time.
  SimTime start = std::max(queue_->Now(), busy_until_);
  SimTime finish = start + service_time_;
  busy_until_ = finish;
  ++queue_depth_;
  queue_depth_high_water_ = std::max(queue_depth_high_water_, queue_depth_);
  queue_->Schedule(finish, [this, request = request_raw,
                            done = std::move(done), framed,
                            header]() mutable {
    --queue_depth_;
    if (down_) {
      // Crashed while the request sat in the service queue.
      ++requests_dropped_;
      return;
    }
    if (admission_.enabled && framed && header.deadline_nanos != 0 &&
        queue_->Now().nanos() >
            static_cast<int64_t>(header.deadline_nanos)) {
      // The deadline passed while the request sat queued: nobody is
      // waiting for this answer anymore, so skip the handler (and the
      // seal/unwrap CPU it would charge) and say so cheaply.
      ++deadline_expired_;
      done(EncodeFault(DetectCodec(FramedCall(request)),
                       ResourceExhaustedError(
                           "rpc: REJECTED expired (deadline passed in queue)")));
      return;
    }
    ProcessRequest(request, std::move(done));
  });
}

void RpcServer::ChargeBusy(SimDuration d) {
  busy_until_ = std::max(queue_->Now(), busy_until_) + d;
}

void RpcServer::ProcessRequest(const std::string& request_raw,
                               std::function<void(std::string)> done) {
  ++requests_handled_;

  std::string request = request_raw;
  SecureChannel* channel = nullptr;
  if (IsEnvelope(request_raw)) {
    if (!channel_lookup_ || channel_rng_ == nullptr) {
      done(EncodeXmlRpcFault(
          PermissionDeniedError("rpc: sealed request, security not enabled")));
      return;
    }
    auto envelope = ParseEnvelope(request_raw);
    if (!envelope.ok()) {
      done(EncodeXmlRpcFault(envelope.status()));
      return;
    }
    channel = channel_lookup_(envelope->device_id);
    if (channel == nullptr) {
      done(EncodeXmlRpcFault(
          PermissionDeniedError("rpc: no channel for device")));
      return;
    }
    auto opened = channel->Open(queue_->Now(), envelope->sealed);
    if (!opened.ok()) {
      done(EncodeXmlRpcFault(opened.status()));
      return;
    }
    request = StringOf(*opened);
    // Seal the response under the same channel before it leaves.
    done = [this, channel, device_id = envelope->device_id,
            inner = std::move(done)](std::string response) {
      Bytes sealed =
          channel->Seal(queue_->Now(), BytesOf(response), *channel_rng_);
      inner(MakeEnvelope(device_id, sealed));
    };
  }

  FrameHeader header;
  if (!ParseFrameHeader(request, &header)) {
    done(EncodeFault(DetectCodec(request),
                     InvalidArgumentError("rpc: request lacks a KPR2 frame")));
    return;
  }

  // At-most-once: retransmissions of an executed request are answered from
  // the reply cache (re-sealed at the current epoch when channels are on);
  // retransmissions racing the original execution are dropped.
  const ReplyCache::RequestKey request_key = header.key;
  if (auto cached = reply_cache_.Lookup(request_key)) {
    reply_cache_.NoteHit();
    done(*cached);
    return;
  }
  if (reply_cache_.IsInFlight(request_key)) {
    reply_cache_.NoteInFlightDrop();
    return;
  }
  reply_cache_.MarkInFlight(request_key);
  done = [this, request_key, inner = std::move(done)](std::string response) {
    reply_cache_.Complete(request_key, response, queue_->Now());
    inner(std::move(response));
  };

  // Echo rule: answer in the codec of the request.
  std::string_view call_bytes = FramedCall(request);
  WireCodec codec = DetectCodec(call_bytes);
  auto call = DecodeCallAuto(call_bytes);
  if (!call.ok()) {
    done(EncodeFault(codec, call.status()));
    return;
  }
  auto it = handlers_.find(call->method);
  if (it == handlers_.end()) {
    done(EncodeFault(codec, NotFoundError("no such method: " + call->method)));
    return;
  }
  ++requests_executed_;
  it->second(call->params,
             [codec, done = std::move(done)](Result<WireValue> result) {
               if (!result.ok()) {
                 done(EncodeFault(codec, result.status()));
               } else {
                 done(EncodeResponse(codec, *result));
               }
             });
}

// Shared completion state between the response path and the timeout path.
struct RpcClient::PendingCall {
  bool done = false;
  Result<WireValue> result = Status(StatusCode::kUnavailable, "pending");
};

// One logical CallAsync across its retry ladder.
struct RpcClient::AsyncCall {
  std::shared_ptr<PendingCall> pending = std::make_shared<PendingCall>();
  std::function<void(Result<WireValue>)> finish;
  std::shared_ptr<BufferLease> request;  // Sealed fresh per attempt.
  std::string method;
  int attempt = 0;
  bool admitted = false;  // Passed the circuit breaker.
  bool probe = false;     // Half-open canary: exempt from the retry budget.
  bool finished = false;
  SimTime deadline;  // Absolute overall deadline.
  EventQueue::EventId timer = EventQueue::kInvalidEvent;
};

RpcClient::RpcClient(EventQueue* queue, NetworkLink* link, RpcServer* server,
                     RpcOptions options)
    : queue_(queue),
      link_(link),
      server_(server),
      options_(options),
      breaker_(options.breaker),
      retry_budget_(options.retry_budget),
      retry_rng_(0),
      client_id_(NextClientId()),
      codec_(options.codec) {
  // Jitter stream is per-client and deterministic: two clients never share
  // draws, and a fixed construction order reproduces exactly.
  retry_rng_ = SimRandom(client_id_ * 0x9E3779B97F4A7C15ull);
}

void RpcClient::EnableChannelSecurity(SecureChannel* channel,
                                      std::string device_id,
                                      SecureRandom* rng) {
  channel_ = channel;
  channel_device_id_ = std::move(device_id);
  channel_rng_ = rng;
}

std::string RpcClient::SealRequest(const std::string& request) {
  if (channel_ == nullptr) {
    return request;
  }
  Bytes sealed =
      channel_->Seal(queue_->Now(), BytesOf(request), *channel_rng_);
  return MakeEnvelope(channel_device_id_, sealed);
}

Result<std::string> RpcClient::OpenResponse(const std::string& response) {
  if (channel_ == nullptr || !IsEnvelope(response)) {
    return response;
  }
  auto envelope = ParseEnvelope(response);
  if (!envelope.ok()) {
    return envelope.status();
  }
  KP_ASSIGN_OR_RETURN(Bytes opened,
                      channel_->Open(queue_->Now(), envelope->sealed));
  return StringOf(opened);
}

std::shared_ptr<BufferLease> RpcClient::Encode(const std::string& method,
                                               const WireValue::Array& params,
                                               const CallContext& ctx) {
  // The wire deadline is the overall ladder deadline: the tighter of the
  // caller's context deadline and now + total_deadline. It is absolute, so
  // every retransmission carries the same remaining budget — the server
  // sheds stale retries exactly like stale originals.
  SimTime deadline = queue_->Now() + options_.total_deadline;
  if (ctx.deadline.has_value() && *ctx.deadline < deadline) {
    deadline = *ctx.deadline;
  }
  auto frame = std::make_shared<BufferLease>(buffer_pool_);
  std::string& out = **frame;
  out.append(kRequestFrameMagic, 4);
  AppendU64(out, client_id_);
  AppendU64(out, next_request_seq_++);
  AppendU64(out, static_cast<uint64_t>(deadline.nanos()));
  out.push_back(static_cast<char>(ctx.priority));
  EncodeCallInto(codec_, method, params, out);
  return frame;
}

SimDuration RpcClient::BackoffBefore(int next_attempt) {
  double backoff = static_cast<double>(options_.retry.initial_backoff.nanos());
  for (int i = 2; i < next_attempt; ++i) {
    backoff *= options_.retry.multiplier;
  }
  double cap = static_cast<double>(options_.retry.max_backoff.nanos());
  backoff = std::min(backoff, cap);
  backoff *= 1.0 + options_.retry.jitter * retry_rng_.UniformDouble();
  return SimDuration(static_cast<int64_t>(backoff));
}

bool RpcClient::SendAttempt(std::shared_ptr<BufferLease> frame,
                            std::shared_ptr<PendingCall> pending,
                            std::function<void()> notify) {
  ++attempts_started_;
  std::string request = SealRequest(**frame);
  RpcServer* server = server_;
  NetworkLink* link = link_;
  size_t request_size = request.size();
  // Each stage of the round trip holds the frame's lease, so the pool
  // recycles the buffer only once no attempt of the call is in flight.
  return link_->Send(
      request_size, NetworkLink::Direction::kForward,
      [this, frame, pending, notify, server, link,
       request = std::move(request)] {
        server->HandleRequestAsync(request, [this, frame, pending, notify,
                                             link](std::string response) {
          size_t response_size = response.size();
          link->Send(
              response_size, NetworkLink::Direction::kReverse,
              [this, frame, pending, notify, response = std::move(response)] {
                if (pending->done) {
                  return;  // Duplicate/late response; call finished.
                }
                auto opened = OpenResponse(response);
                if (!opened.ok()) {
                  pending->result = opened.status();
                } else {
                  auto decoded = DecodeResponseAuto(*opened);
                  if (!decoded.ok()) {
                    pending->result = decoded.status();
                  } else if (!decoded->fault.ok()) {
                    pending->result = decoded->fault;
                  } else {
                    pending->result = decoded->value;
                  }
                }
                pending->done = true;
                if (notify) {
                  notify();
                }
              });
        });
      });
}

bool IsRejectedByServer(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().find("REJECTED") != std::string::npos;
}

bool IsRejectedByServer(const Result<WireValue>& result) {
  return !result.ok() && IsRejectedByServer(result.status());
}

void RpcClient::NoteCallResult(const Result<WireValue>& result) {
  if (IsRejectedByServer(result)) {
    ++calls_rejected_by_server_;
    retry_budget_.NoteServerRejected(queue_->Now());
  }
}

Result<WireValue> RpcClient::Call(const std::string& method,
                                  WireValue::Array params,
                                  const CallContext& ctx) {
  ++calls_started_;
  queue_->AdvanceBy(codec_ == WireCodec::kBinary
                        ? options_.client_overhead_binary
                        : options_.client_overhead);

  if (!link_->disconnected()) {
    // An abort-opened breaker ends its cooldown as soon as the link is
    // observably back up.
    breaker_.NoteLinkRestored(queue_->Now());
  }
  bool was_open = breaker_.state() == CircuitBreaker::State::kOpen;
  if (!breaker_.AllowRequest(queue_->Now())) {
    return UnavailableError("rpc: circuit open, rejecting " + method);
  }
  // Admitted out of the open state = THE half-open probe. It shares the
  // budget's state but is exempt from its gate: a drained bucket must
  // not starve the single canary that can close the breaker.
  bool probe = was_open &&
               breaker_.state() == CircuitBreaker::State::kHalfOpen;
  retry_budget_.OnFirstAttempt();

  auto frame = Encode(method, params, ctx);
  auto pending = std::make_shared<PendingCall>();
  SimTime overall_deadline = queue_->Now() + options_.total_deadline;
  if (ctx.deadline.has_value()) {
    overall_deadline = std::min(overall_deadline, *ctx.deadline);
  }
  int max_attempts = std::max(1, options_.retry.max_attempts);

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (link_->disconnected()) {
      // Fail fast: the interface is down, waiting out a timeout (or
      // retrying into the void) buys nothing.
      pending->done = true;
      ++calls_failed_fast_;
      breaker_.RecordAborted(queue_->Now());
      return UnavailableError("rpc: link down calling " + method);
    }
    if (!SendAttempt(frame, pending, nullptr)) {
      pending->done = true;
      ++calls_failed_fast_;
      breaker_.RecordAborted(queue_->Now());
      return UnavailableError("rpc: send failed calling " + method);
    }
    SimTime attempt_deadline =
        std::min(queue_->Now() + options_.timeout, overall_deadline);
    if (queue_->RunUntilFlag(&pending->done, attempt_deadline)) {
      breaker_.RecordSuccess();
      NoteCallResult(pending->result);
      return pending->result;
    }
    if (attempt == max_attempts || queue_->Now() >= overall_deadline) {
      break;
    }
    if (!probe && !retry_budget_.TryAcquireRetry(queue_->Now())) {
      // Budget drained (or the server REJECTED us this window): retrying
      // into a saturated tier only amplifies the overload. Give up as a
      // timeout — the breaker sees the failure like any other.
      break;
    }
    SimDuration backoff = BackoffBefore(attempt + 1);
    if (queue_->Now() + backoff >= overall_deadline) {
      break;
    }
    queue_->AdvanceBy(backoff);
    if (pending->done) {
      // A straggler response from an earlier attempt landed during the
      // backoff — the call succeeded after all.
      breaker_.RecordSuccess();
      NoteCallResult(pending->result);
      return pending->result;
    }
  }

  pending->done = true;  // Suppress any later straggler.
  ++calls_timed_out_;
  breaker_.RecordFailure(queue_->Now());
  return UnavailableError("rpc: timeout calling " + method);
}

void RpcClient::FinishAsync(std::shared_ptr<AsyncCall> call,
                            Result<WireValue> result) {
  if (call->finished) {
    return;
  }
  call->finished = true;
  call->pending->done = true;
  if (call->timer != EventQueue::kInvalidEvent) {
    // Satellite fix: don't leave a dead timeout event behind a completed
    // call — long soaks would accumulate garbage in the queue.
    queue_->Cancel(call->timer);
    call->timer = EventQueue::kInvalidEvent;
  }
  call->finish(std::move(result));
}

void RpcClient::StartAsyncAttempt(std::shared_ptr<AsyncCall> call) {
  if (call->pending->done) {
    return;
  }
  if (link_->disconnected()) {
    ++calls_failed_fast_;
    breaker_.RecordAborted(queue_->Now());
    FinishAsync(call, UnavailableError("rpc: link down calling " +
                                       call->method));
    return;
  }
  ++call->attempt;
  bool sent = SendAttempt(call->request, call->pending, [this, call] {
    breaker_.RecordSuccess();
    NoteCallResult(call->pending->result);
    FinishAsync(call, call->pending->result);
  });
  if (!sent) {
    ++calls_failed_fast_;
    breaker_.RecordAborted(queue_->Now());
    FinishAsync(call, UnavailableError("rpc: send failed calling " +
                                       call->method));
    return;
  }
  SimTime attempt_deadline =
      std::min(queue_->Now() + options_.timeout, call->deadline);
  call->timer = queue_->Schedule(attempt_deadline, [this, call] {
    call->timer = EventQueue::kInvalidEvent;
    if (call->pending->done) {
      return;
    }
    int max_attempts = std::max(1, options_.retry.max_attempts);
    if (call->attempt < max_attempts && !call->probe &&
        !retry_budget_.TryAcquireRetry(queue_->Now())) {
      // Budget drained (or a REJECTED closed the window): stop the
      // ladder here instead of feeding the overload.
      ++calls_timed_out_;
      breaker_.RecordFailure(queue_->Now());
      FinishAsync(call, UnavailableError("rpc: retry budget exhausted calling " +
                                         call->method));
      return;
    }
    SimDuration backoff = BackoffBefore(call->attempt + 1);
    if (call->attempt >= max_attempts ||
        queue_->Now() + backoff >= call->deadline) {
      ++calls_timed_out_;
      breaker_.RecordFailure(queue_->Now());
      FinishAsync(call, UnavailableError("rpc: timeout calling " +
                                         call->method));
      return;
    }
    call->timer = queue_->ScheduleAfter(backoff, [this, call] {
      call->timer = EventQueue::kInvalidEvent;
      StartAsyncAttempt(call);
    });
  });
}

void RpcClient::CallAsync(const std::string& method, WireValue::Array params,
                          const CallContext& ctx,
                          std::function<void(Result<WireValue>)> done) {
  ++calls_started_;
  queue_->AdvanceBy(codec_ == WireCodec::kBinary
                        ? options_.client_overhead_binary
                        : options_.client_overhead);

  auto call = std::make_shared<AsyncCall>();
  call->finish = std::move(done);
  call->method = method;
  call->deadline = queue_->Now() + options_.total_deadline;
  if (ctx.deadline.has_value()) {
    call->deadline = std::min(call->deadline, *ctx.deadline);
  }

  if (!link_->disconnected()) {
    breaker_.NoteLinkRestored(queue_->Now());
  }
  bool was_open = breaker_.state() == CircuitBreaker::State::kOpen;
  if (!breaker_.AllowRequest(queue_->Now())) {
    // Preserve the async contract: complete from the queue, never
    // reentrantly from inside CallAsync.
    queue_->ScheduleAfter(SimDuration(0), [this, call] {
      FinishAsync(call, UnavailableError("rpc: circuit open, rejecting " +
                                         call->method));
    });
    return;
  }
  call->admitted = true;
  call->probe = was_open &&
                breaker_.state() == CircuitBreaker::State::kHalfOpen;
  retry_budget_.OnFirstAttempt();
  call->request = Encode(method, params, ctx);
  StartAsyncAttempt(call);
}

}  // namespace keypad
