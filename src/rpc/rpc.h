// RPC over the simulated network: real marshalling (every call is encoded,
// shipped as bytes, and decoded — XML-RPC by default, compact binary TLV
// when the client is built with it; DESIGN.md §11), with virtual-blocking
// and asynchronous call styles.
//
// A "virtually blocking" Call() models a client thread waiting on a
// response: it pumps the shared event queue until the reply lands or the
// timeout deadline passes, so background activity (key expirations, metadata
// unlock threads, other in-flight RPCs) interleaves exactly as in a real
// multithreaded client. CallAsync() is used for the IBE metadata-update path
// where the paper explicitly overlaps the RPC with foreground work.
//
// Resilience (DESIGN.md §7): the paper treats network failure as the common
// case, so the client is built to ride through it without corrupting the
// audit record:
//  * retries with exponential backoff and deterministic seeded jitter, a
//    per-attempt timeout under an overall deadline;
//  * fail-fast: a locally-known send failure (link down) or an open
//    circuit breaker costs ~0 instead of a full timeout;
//  * at-most-once: every call carries a client-generated request ID; the
//    server's bounded ReplyCache answers retransmissions from the cached
//    reply so a retried key.create never double-registers and a retried
//    key.get never appends a duplicate audit-log row;
//  * a per-target circuit breaker (closed/open/half-open) so a dead
//    service degrades to one fast failure per operation.
//
// Cost model: the client charges `client_overhead` of CPU per call
// (XML-RPC marshal/unmarshal — the dominant Keypad cost on a LAN per
// Fig. 6a; `client_overhead_binary` for a binary client) and the server
// charges `service_time` per request (logging the access durably +
// lookup).
//
// Wire framing (DESIGN.md §11): every request is a KPR2 frame (dedup key,
// deadline, priority) around a call encoded in the client's codec, which
// RpcOptions::codec fixes for the client's whole life. Frames are
// self-describing and the server answers in the codec of the request (echo
// rule). A request without a complete KPR2 header draws an InvalidArgument
// fault and never reaches a handler or the reply cache.

#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/cryptocore/secure_random.h"
#include "src/net/link.h"
#include "src/net/secure_channel.h"
#include "src/rpc/admission.h"
#include "src/rpc/circuit_breaker.h"
#include "src/rpc/reply_cache.h"
#include "src/rpc/retry_budget.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/util/result.h"
#include "src/wire/buffer_pool.h"
#include "src/wire/codec.h"
#include "src/wire/value.h"

namespace keypad {

// Per-call context a caller threads down to the wire (DESIGN.md §14).
// The priority class and the remaining deadline ride in the KPR2 request
// frame so the *server* can shed or expire the request instead of
// executing work nobody is waiting for anymore.
struct CallContext {
  RpcPriority priority = RpcPriority::kDemand;
  // Optional absolute deadline. The wire deadline is the tighter of this
  // and now + total_deadline; unset means the RpcOptions deadline alone.
  std::optional<SimTime> deadline;
};

class RpcServer {
 public:
  using Handler = std::function<Result<WireValue>(const WireValue::Array&)>;
  // Asynchronous handler: must eventually call `respond` exactly once.
  // Used by servers that themselves wait on other services (the paired
  // phone forwarding upstream) — a synchronous handler there would stall
  // the simulated timeline for everyone behind it.
  using Responder = std::function<void(Result<WireValue>)>;
  using AsyncHandler =
      std::function<void(const WireValue::Array&, Responder)>;

  // `service_time` is charged (virtually) for every handled request.
  RpcServer(EventQueue* queue, SimDuration service_time)
      : queue_(queue), service_time_(service_time) {
    // KEYPAD_ADMISSION=1 turns admission on even for servers nobody
    // explicitly configured (the read-path-invariants-under-admission
    // CI sweep relies on this).
    admission_.enabled = AdmissionEnabledEnv(admission_.enabled);
  }

  void RegisterMethod(const std::string& name, Handler handler);
  void RegisterAsyncMethod(const std::string& name, AsyncHandler handler);

  // Transport encryption (paper §6): when enabled, requests arriving as
  // sealed envelopes are opened with the sending device's channel and the
  // response is sealed back. Plaintext requests are still accepted (a
  // deployment migrates devices one at a time). `lookup` returns the
  // per-device channel (ratcheting session keys), or nullptr for unknown
  // devices.
  using ChannelLookup = std::function<SecureChannel*(const std::string&)>;
  void EnableChannelSecurity(ChannelLookup lookup, SecureRandom* rng);

  // Decodes, dispatches, and (possibly later) encodes a response or fault.
  // Called by RpcClient through the link. Every request executes at most
  // once (see ReplyCache); one without a complete KPR2 header is answered
  // with an InvalidArgument fault and never executes.
  //
  // Cost model: each server owns a busy-clock. An arriving request is
  // serviced at max(now, busy_until) + service_time — an M/G/1-style queue
  // per server — so concurrent requests to ONE server queue behind each
  // other while independent servers (e.g. key-service shards) overlap
  // freely in virtual time. A single outstanding request completes at
  // arrival + service_time, exactly as before.
  void HandleRequestAsync(const std::string& request_raw,
                          std::function<void(std::string)> done);

  // Charges extra busy time to this server (e.g. the key service billing
  // an audit-log group seal to the shard that performed it).
  void ChargeBusy(SimDuration d);

  // Crash simulation: while down, arriving requests are swallowed — no
  // response, no execution — exactly what a dead process does. The client's
  // per-attempt timeout (and eventually its circuit breaker) handles it.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  // Admission control (DESIGN.md §14): bounded queue, CoDel-style
  // sojourn shedding by priority class, and deadline expiry — all
  // evaluated against this server's busy clock. Disabled by default (the
  // legacy unbounded queue); KEYPAD_ADMISSION overrides either way.
  // Shedding decisions need the priority/deadline from the KPR2 frame,
  // so only plaintext-framed requests are shed at arrival; sealed
  // envelopes queue as before (the frame is inside the ciphertext).
  void set_admission(AdmissionOptions admission);
  const AdmissionOptions& admission() const { return admission_; }
  // True while the CoDel clock says the sojourn has been above target
  // for a full interval — the state in which classes start shedding.
  bool overloaded() const { return overloaded_; }

  ReplyCache& reply_cache() { return reply_cache_; }
  const ReplyCache& reply_cache() const { return reply_cache_; }

  uint64_t requests_handled() const { return requests_handled_; }
  // Requests that reached a (registered) handler — dedup replays and
  // in-flight drops excluded.
  uint64_t requests_executed() const { return requests_executed_; }
  // Requests swallowed while the server was down.
  uint64_t requests_dropped() const { return requests_dropped_; }
  // Requests currently queued for service (arrived, not yet processed).
  uint64_t queue_depth() const { return queue_depth_; }
  // Deepest the service queue ever got — the saturation signal the scale
  // bench records per shard.
  uint64_t queue_depth_high_water() const { return queue_depth_high_water_; }
  // Requests shed by admission control, by priority class. Shed requests
  // never reach a handler, never touch the busy clock, and never owe an
  // audit row — no key material left the service.
  uint64_t shed_demand() const { return shed_demand_; }
  uint64_t shed_prefetch() const { return shed_prefetch_; }
  uint64_t shed_background() const { return shed_background_; }
  uint64_t requests_shed() const {
    return shed_demand_ + shed_prefetch_ + shed_background_;
  }
  // Requests rejected because their frame deadline was (or would be)
  // already blown — at arrival or on dequeue.
  uint64_t deadline_expired() const { return deadline_expired_; }
  // Transitions into the overloaded state — the brownout signal.
  uint64_t overload_events() const { return overload_events_; }

 private:
  // The post-queueing half of HandleRequestAsync: decode, dedup, dispatch.
  void ProcessRequest(const std::string& request_raw,
                      std::function<void(std::string)> done);

  // Arrival-side admission verdict for a framed plaintext request. A
  // non-OK status is the REJECTED fault to answer with (and counters
  // have been bumped); OK means queue it.
  Status AdmitAtArrival(RpcPriority priority, uint64_t deadline_nanos);

  EventQueue* queue_;
  SimDuration service_time_;
  SimTime busy_until_;  // Busy-clock: when the server frees up.
  uint64_t queue_depth_ = 0;
  uint64_t queue_depth_high_water_ = 0;
  AdmissionOptions admission_;
  // CoDel state: when the expected sojourn first went above target (unset
  // = currently below), and whether a full interval has elapsed above.
  bool above_target_ = false;
  SimTime above_since_;
  bool overloaded_ = false;
  uint64_t shed_demand_ = 0;
  uint64_t shed_prefetch_ = 0;
  uint64_t shed_background_ = 0;
  uint64_t deadline_expired_ = 0;
  uint64_t overload_events_ = 0;
  std::map<std::string, AsyncHandler> handlers_;
  ChannelLookup channel_lookup_;
  SecureRandom* channel_rng_ = nullptr;
  ReplyCache reply_cache_;
  bool down_ = false;
  uint64_t requests_handled_ = 0;
  uint64_t requests_executed_ = 0;
  uint64_t requests_dropped_ = 0;
};

struct RetryOptions {
  // Total send attempts per call (1 = no retries).
  int max_attempts = 3;
  // Backoff before attempt n+1: initial_backoff * multiplier^(n-1),
  // capped at max_backoff, stretched by up to `jitter` (uniform,
  // deterministic from the client's seeded RNG).
  SimDuration initial_backoff = SimDuration::Millis(200);
  double multiplier = 2.0;
  SimDuration max_backoff = SimDuration::Seconds(10);
  double jitter = 0.2;
};

struct RpcOptions {
  // CPU charged on the client per call (marshal + unmarshal) when the call
  // goes out as XML-RPC.
  SimDuration client_overhead = SimDuration::Micros(350);
  // CPU per call under binary framing: no tag soup to build or parse, so
  // marshalling drops by roughly an order of magnitude.
  SimDuration client_overhead_binary = SimDuration::Micros(30);
  // Codec of every request this client sends, fixed at construction.
  WireCodec codec = WireCodec::kXml;
  // How long a single attempt waits before retrying (or giving up).
  SimDuration timeout = SimDuration::Seconds(5);
  // Overall budget for one logical call across attempts and backoffs.
  SimDuration total_deadline = SimDuration::Seconds(30);
  RetryOptions retry;
  CircuitBreakerOptions breaker;
  // Token-bucket cap on the retry-to-first-attempt ratio (DESIGN.md
  // §14). Off by default (the §7 ladder).
  RetryBudgetOptions retry_budget;
};

// Resets the process-global RPC client-id allocator. Client ids seed the
// per-client retry-jitter streams, so tests that compare two runs of the
// same scenario inside one process call this before each run.
void ResetRpcClientIdsForTesting();

class RpcClient {
 public:
  RpcClient(EventQueue* queue, NetworkLink* link, RpcServer* server,
            RpcOptions options = {});

  // Virtually-blocking call. Returns the server's value, the server's
  // fault, or kUnavailable when the link is known-down (fail-fast), the
  // circuit breaker is open, every attempt timed out, or the retry
  // budget denied the next attempt.
  Result<WireValue> Call(const std::string& method,
                         WireValue::Array params) {
    return Call(method, std::move(params), CallContext{});
  }
  Result<WireValue> Call(const std::string& method, WireValue::Array params,
                         const CallContext& ctx);

  // Asynchronous call; `done` fires exactly once — with the response, a
  // fault, or kUnavailable after fail-fast / breaker rejection / the last
  // attempt's timeout.
  void CallAsync(const std::string& method, WireValue::Array params,
                 std::function<void(Result<WireValue>)> done) {
    CallAsync(method, std::move(params), CallContext{}, std::move(done));
  }
  void CallAsync(const std::string& method, WireValue::Array params,
                 const CallContext& ctx,
                 std::function<void(Result<WireValue>)> done);

  // Re-point the client at a different link (e.g. paired-device failover).
  void set_link(NetworkLink* link) { link_ = link; }
  NetworkLink* link() const { return link_; }

  // Enables transport encryption: requests are sealed under the device's
  // ratcheting channel keys; responses are opened with the same channel.
  void EnableChannelSecurity(SecureChannel* channel, std::string device_id,
                             SecureRandom* rng);

  RpcOptions& options() { return options_; }
  CircuitBreaker& breaker() { return breaker_; }
  const RetryBudget& retry_budget() const { return retry_budget_; }
  // Reuse statistics of the pooled encode buffers.
  const BufferPool::Stats& encode_buffer_stats() const {
    return buffer_pool_->stats();
  }

  uint64_t calls_started() const { return calls_started_; }
  uint64_t attempts_started() const { return attempts_started_; }
  // Calls that exhausted every attempt without a response.
  uint64_t calls_timed_out() const { return calls_timed_out_; }
  // Calls (or retry ladders) aborted because the link was locally known
  // to be down.
  uint64_t calls_failed_fast() const { return calls_failed_fast_; }
  // Calls rejected without a send by the open circuit breaker.
  uint64_t calls_rejected() const { return breaker_.rejected_count(); }
  // Calls the server answered with an explicit REJECTED fault
  // (admission shed or deadline-expired) — the budget window closes on
  // each so retries stop within it.
  uint64_t calls_rejected_by_server() const {
    return calls_rejected_by_server_;
  }
  // Retry ladders cut short by the budget (attempt N timed out and the
  // bucket would not fund attempt N+1).
  uint64_t retries_budget_denied() const {
    return retry_budget_.retries_denied();
  }

 private:
  struct PendingCall;
  struct AsyncCall;

  // Seals an outgoing request when channel security is on (identity
  // transform otherwise); OpenResponse reverses it.
  std::string SealRequest(const std::string& request);
  Result<std::string> OpenResponse(const std::string& response);

  // Marshals a call once for its whole retry ladder: KPR2 frame (client id
  // + fresh sequence number + deadline + priority) and the call encoded in
  // this client's codec, assembled in one pooled buffer.
  std::shared_ptr<BufferLease> Encode(const std::string& method,
                                      const WireValue::Array& params,
                                      const CallContext& ctx);

  // Observes a completed call's result: a REJECTED fault closes the
  // retry-budget window (the server explicitly refused the load).
  void NoteCallResult(const Result<WireValue>& result);

  // Transmits one attempt: request over the link, handler on the server,
  // response back over the link, completing `pending` unless it already
  // completed (then invoking `notify`, if any — the async path's hook).
  // Returns false iff the link reported the send failed locally.
  bool SendAttempt(std::shared_ptr<BufferLease> frame,
                   std::shared_ptr<PendingCall> pending,
                   std::function<void()> notify);

  // Backoff before attempt `next_attempt` (2-based), jittered.
  SimDuration BackoffBefore(int next_attempt);

  void StartAsyncAttempt(std::shared_ptr<AsyncCall> call);
  void FinishAsync(std::shared_ptr<AsyncCall> call, Result<WireValue> result);

  EventQueue* queue_;
  NetworkLink* link_;
  RpcServer* server_;
  RpcOptions options_;
  CircuitBreaker breaker_;
  RetryBudget retry_budget_;
  SimRandom retry_rng_;
  uint64_t client_id_;
  uint64_t next_request_seq_ = 1;
  SecureChannel* channel_ = nullptr;
  std::string channel_device_id_;
  SecureRandom* channel_rng_ = nullptr;
  // options.codec as constructed; later edits through options() never
  // switch the framing.
  const WireCodec codec_;
  // Shared with outstanding BufferLeases: in-flight requests can outlive
  // the client (e.g. failover tears a client down mid-flight).
  std::shared_ptr<BufferPool> buffer_pool_ = std::make_shared<BufferPool>();
  uint64_t calls_started_ = 0;
  uint64_t attempts_started_ = 0;
  uint64_t calls_timed_out_ = 0;
  uint64_t calls_failed_fast_ = 0;
  uint64_t calls_rejected_by_server_ = 0;
};

// True when `result` is the server's explicit REJECTED fault (admission
// shed or deadline-expired): kResourceExhausted with the REJECTED tag.
// Callers treat it as non-retryable backpressure — the server saw the
// request and refused it cheaply; no key material moved, no audit row
// was written.
bool IsRejectedByServer(const Status& status);
bool IsRejectedByServer(const Result<WireValue>& result);

}  // namespace keypad

#endif  // SRC_RPC_RPC_H_
