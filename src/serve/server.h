#ifndef GROUPSA_SERVE_SERVER_H_
#define GROUPSA_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/debug_mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/virtual_clock.h"
#include "core/groupsa_model.h"
#include "core/inference_engine.h"
#include "core/item_index.h"
#include "core/quantized.h"
#include "data/interaction_matrix.h"
#include "data/types.h"
#include "serve/circuit_breaker.h"

namespace groupsa::serve {

// ---------------------------------------------------------------------------
// groupsa_serve — the queue-driven concurrent request pipeline.
//
// The library's InferenceEngine answers one call at a time on the caller's
// thread; this daemon turns it into a process that admits concurrent
// traffic:
//
//   Submit() ──► bounded admission queue ──► W worker loops (pool threads)
//       │               │                        │
//       │ invalid:      │ full: overload policy  │ the current generation's
//       │ reject        ▼                        ▼ engine, or popularity
//       │        shed → popularity          (no model, breaker open, fault)
//       ▼
//   expired: resolve without ranking
//
// Submit() is the one validation boundary: it maps a Request to the engine
// query it names (core::QueryKind plus ids) once and checks it with
// core::ValidateQuery over the constructor's id spaces. A generation whose
// model has other id spaces fails to build, so an admitted request goes
// straight to the engine's unchecked call and is never validated again.
// Popularity answers rank the constructor's item counts with
// core::TopKItems, skipping the request's seen items like the engine does.
//
// Worker loops run on a dedicated groupsa::parallel::ThreadPool (never raw
// std::thread — the determinism linter bans those); each popped request is
// answered through the generation's InferenceEngine, whose one
// value-version-keyed representation cache all workers share. Scoring
// inside a worker that fans out through the global pool runs inline
// (nested ParallelFor), so responses are bit-identical at any worker count
// and any global pool width.
//
// Hot reload: Reload(path) stages a complete new model generation off to
// the side (factory + checkpoint v2 all-or-nothing load) and then swaps one
// shared_ptr. In-flight and queued requests keep the generation they
// grabbed alive through the shared_ptr, so a reload never drops, blocks or
// corrupts a request; each response records the generation that served it.
// A failed reload (missing/torn checkpoint, injected fault) leaves the old
// generation serving, bumps a counter, and — when ServeConfig::
// reload_retries > 0 — arms a bounded background retry that re-attempts
// the load after an exponential-backoff delay measured on the virtual
// clock (i.e. after that much more traffic has flowed).
//
// Resilience layer (see DESIGN.md §13):
//
//  * Time is virtual. The server owns a VirtualClock whose tick advances
//    once per submission and once per worker completion — never from a
//    wall clock, which the determinism linter bans in src/. Deadlines,
//    backoff delays and circuit-breaker cool-downs are all measured in
//    these ticks, so every timing decision is a pure function of the
//    request schedule.
//  * Requests carry deadlines (absolute tick, or a tick budget resolved at
//    admission). An already-expired request is resolved at the door; a
//    request whose deadline passed while it sat in the queue is resolved
//    the moment a worker pops it, before any scoring work.
//  * Transient model-path faults (failpoint "serve.worker", chaos bits)
//    retry with exponential backoff and deterministic jitter. A retry does
//    not sleep: its backoff delay is charged against the request's own
//    deadline budget, so retrying requests expire sooner.
//  * A circuit breaker watches request-final model-path outcomes and, once
//    a rolling window trips, short-circuits the model path to the
//    popularity fallback until half-open probes re-admit it.
//  * Workers are supervised. Each worker owns a slot recording the job it
//    is processing; a supervisor loop detects a hung worker (failpoint
//    "serve.worker.hang" or a chaos bit), steals the job back, requeues it
//    at the front and restarts the worker. Stealing is safe because a
//    response is a pure function of (request, generation): whichever side
//    wins the slot ownership race resolves the promise exactly once.
//
// Failure behavior: the daemon degrades, never crashes. Malformed requests
// (out-of-range ids, empty/duplicate member lists, k < 1) resolve as
// structured rejections at the door; admission overflow sheds to the
// popularity path (or rejects, per policy); worker-side faults degrade (or
// retry, then degrade) that one response; reload faults keep the last good
// generation. Every submitted request resolves its future exactly once —
// including requests still queued at Stop(), which are drained, requests
// held by a hung worker at Stop(), which the release path serves, and
// requests submitted after Stop(), which resolve as rejected.
//
// Determinism: the daemon itself never reads a clock or ad-hoc randomness;
// a response is a pure function of (request, model generation) and every
// timing decision a pure function of the request schedule. That is what
// makes the stress/soak suite, the seeded chaos suite and the serve-mode
// golden test byte-reproducible at any worker count.
// ---------------------------------------------------------------------------

// A recommend request: one of the three entity kinds the engine serves.
struct Request {
  enum class Kind { kUser, kGroup, kMembers };
  Kind kind = Kind::kUser;
  data::UserId user = 0;       // kUser
  data::GroupId group = 0;     // kGroup
  std::vector<data::UserId> members;  // kMembers (ad-hoc / occasional group)
  int k = 10;
  // Apply the server's exclude matrices (seen-item filtering) to this
  // request: the user matrix for kUser/kMembers, the group matrix for
  // kGroup.
  bool exclude_seen = false;

  // Deadline, on the server's virtual clock. `deadline_tick` is absolute
  // (a client-carried end-to-end deadline); when 0, `deadline_ticks` is a
  // budget resolved against the clock at admission; when both are 0 the
  // server-wide ServeConfig::deadline_ticks budget applies (0 = none).
  uint64_t deadline_tick = 0;
  uint64_t deadline_ticks = 0;

  // Deterministic fault injection, set per-request by the chaos harness
  // (serve/harness.h) so that which requests fault is a pure function of
  // the chaos seed, not of thread interleaving the way hit-counted
  // failpoints are.
  struct Chaos {
    uint8_t fault_attempts = 0;  // first N model attempts fault (transient)
    bool hang = false;           // the worker serving this request hangs
  };
  Chaos chaos;
};

struct Response {
  uint64_t id = 0;  // submission ticket (monotone per server)
  std::vector<std::pair<data::ItemId, double>> items;
  bool degraded = false;  // popularity path answered (model bypassed)
  bool shed = false;      // admission control answered; never reached a worker
  bool rejected = false;  // no ranking at all (policy kReject, invalid, stopped)
  bool expired = false;   // deadline passed before any scoring work
  int retries = 0;        // model attempts beyond the first this answer took
  std::string error;      // why, when degraded/shed/rejected/expired
  uint64_t generation = 0;  // model generation that served it (0 = none)
};

// Monotone ops counters (and two gauges at the bottom). Conservation
// invariant, checked by the stress and chaos suites:
//   submitted == admitted + shed + rejected + expired
// and once the server is stopped admitted == completed (the queue is
// drained, never dropped; a queued request whose deadline passed still
// completes — as an expired response, counted in expired_queue).
struct ServerStats {
  int64_t submitted = 0;
  int64_t admitted = 0;   // made it into the queue
  int64_t shed = 0;       // overload policy served popularity at the door
  int64_t rejected = 0;   // resolved with no ranking
  int64_t expired = 0;    // dead on arrival at the door (absolute deadline)
  int64_t completed = 0;  // answered by a worker
  int64_t degraded = 0;   // worker answers that fell back to popularity
  int64_t invalid = 0;        // validation rejections (subset of rejected)
  int64_t expired_queue = 0;  // admitted, but expired by pop or mid-retry
  int64_t retries = 0;        // retry attempts issued
  int64_t worker_faults = 0;  // transient model-path faults observed
  int64_t hangs_rescued = 0;    // jobs stolen back from hung workers
  int64_t worker_restarts = 0;  // replacement worker loops started
  int64_t reloads = 0;
  int64_t failed_reloads = 0;
  int64_t reload_retry_attempts = 0;  // background re-attempts of a reload
  int64_t breaker_trips = 0;    // closed -> open
  int64_t breaker_reopens = 0;  // half-open -> open (probe failed)
  int64_t breaker_closes = 0;   // half-open -> closed
  int64_t breaker_probes = 0;   // probe requests admitted
  int64_t peak_queue_depth = 0;
  // Gauges (not monotone).
  int breaker_state = 0;  // BreakerState as int (0 closed, 1 open, 2 half)
  uint64_t now_tick = 0;  // virtual clock reading
};

struct ServeConfig {
  int workers = 2;       // scoring worker loops (>= 1)
  int queue_depth = 64;  // admission queue bound (>= 1)
  enum class OverloadPolicy {
    kShedToFallback,  // full queue: answer popularity on the caller thread
    kReject,          // full queue: resolve as rejected, no ranking
  };
  OverloadPolicy overload = OverloadPolicy::kShedToFallback;
  // Retrieval mode for every generation's engine. Under kIvf each
  // generation's item index is built EAGERLY inside BuildGeneration — off
  // the serving path, before the generation swap — so neither Start() nor a
  // hot Reload() ever runs a k-means build on a request thread, and reloads
  // keep their zero-dropped-requests guarantee.
  core::TopKMode topk = core::TopKMode::kExact;
  core::ItemIndexConfig index;  // build/query knobs when topk == kIvf
  // Candidate-scan precision for every generation's engine. Under kInt8 the
  // quantized item tables are built EAGERLY inside BuildGeneration — same
  // contract as the IVF index above: never on a request thread, and hot
  // reloads keep the zero-dropped-requests guarantee. Composes with kIvf.
  core::ScoreMode score = core::ScoreMode::kExact;
  core::Int8Config int8;  // scan/re-rank knobs when score == kInt8

  // ---- Resilience knobs (all off by default: with none of them set the
  // server behaves exactly like the pre-resilience pipeline). ----
  // Default per-request deadline budget in virtual ticks (0 = no deadline).
  uint64_t deadline_ticks = 0;
  // Retry policy for transient model-path faults; backoff.max_retries is
  // the retry count, delays are charged against the request's deadline.
  BackoffPolicy backoff;
  // Background re-attempts after a failed Reload (0 = none). Attempt n
  // waits BackoffDelayTicks(backoff, 0, n) virtual ticks of traffic.
  int reload_retries = 0;
  // Circuit breaker over the model path (disabled by default).
  BreakerConfig breaker;
  // Worker supervision: hung-worker detection, job rescue, restart.
  bool supervise = true;
  // Wall interval between supervisor sweeps. Wall time here is safe: the
  // supervisor only affects WHEN a hung job is rescued, never what any
  // response contains.
  int supervisor_poll_ms = 2;
};

// Point-in-time operational snapshot (the `health` command of the serve
// daemon). Unlike ServerStats this includes per-worker liveness.
struct ServerHealth {
  bool running = false;
  bool accepting = false;  // queue open (false once stopping)
  bool paused = false;
  int queue_depth = 0;
  uint64_t now_tick = 0;
  uint64_t generation = 0;
  BreakerState breaker = BreakerState::kClosed;
  bool reload_retry_pending = false;
  struct Worker {
    int slot = 0;
    bool alive = false;    // a worker loop currently owns the slot
    bool busy = false;     // a job is installed in the slot
    bool hanging = false;  // owner is parked in a simulated hang
    uint64_t job_id = 0;   // ticket of the installed job (0 = idle)
    int64_t restarts = 0;  // times the supervisor replaced this slot's owner
  };
  std::vector<Worker> workers;
};

class Server {
 public:
  // Builds the model for one checkpoint generation. Called once by Start()
  // and once per Reload(); runs off the serving path, so a slow build never
  // stalls traffic. Returning an error keeps the previous generation (at
  // Start: fails Start), and so does a model whose user, group or item
  // count differs from the server's. Returning Ok with a null model is the
  // explicit "serve permanently degraded" state (popularity only) — the
  // factory decides whether a bad checkpoint is fatal or degradable.
  using ModelFactory =
      std::function<Status(const std::string& checkpoint_path,
                           std::unique_ptr<core::GroupSaModel>*)>;

  // `popularity` (training interactions) is counted per item once, here,
  // into the popularity ranking; `num_users` / `num_groups` / `num_items`
  // are the id spaces requests are validated against and every
  // generation's model must have. `user_exclude` / `group_exclude` are the
  // seen-item matrices consulted when Request::exclude_seen is set (either
  // may be null, otherwise one row per user / group). The matrices must
  // outlive the server.
  Server(const ServeConfig& config, ModelFactory factory,
         std::string checkpoint_path, const data::EdgeList& popularity,
         int num_users, int num_groups, int num_items,
         const data::InteractionMatrix* user_exclude,
         const data::InteractionMatrix* group_exclude);
  ~Server();  // Stop()s if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Builds generation 1 via the factory and starts the worker loops (and
  // the supervisor, when configured).
  Status Start();

  // Closes admission, drains every queued request through the workers and
  // joins them. Hung workers are released and serve their held job before
  // exiting; a Reload racing Stop() can no longer swap a generation in
  // after the drain (it fails with an error instead). Idempotent. After
  // Stop(), Submit() resolves as rejected.
  void Stop();

  bool running() const;

  // Admits `req` and returns a future that resolves exactly once, whatever
  // happens (served, degraded, shed, rejected, expired, drained at
  // shutdown).
  std::future<Response> Submit(Request req);

  // Submit + wait: the synchronous convenience used by tools and tests.
  Response Call(Request req);

  // Atomically swaps in a freshly built model generation (see the class
  // comment). Safe to call concurrently with traffic; concurrent Reloads
  // serialize. On error the previous generation keeps serving (and a
  // background retry is armed when reload_retries > 0). A successful swap
  // resets the circuit breaker: a fresh model deserves a fresh window.
  Status Reload(const std::string& checkpoint_path);

  // Maintenance window: Pause() parks the worker loops after their current
  // request; admission keeps queueing (and the overload policy keeps
  // applying), so a paused server backs up deterministically — which is
  // also how the admission-control tests fill the queue without racing the
  // workers, and how the deadline tests age queued requests. Resume()
  // releases the loops; Stop() resumes implicitly so shutdown always
  // drains.
  void Pause();
  void Resume();

  ServerStats stats() const;
  ServerHealth Health() const;
  uint64_t generation() const;
  uint64_t now_tick() const { return clock_.Now(); }

 private:
  // One model generation: the model (owns its InferenceEngine and therefore
  // the shared value-version-keyed representation cache). `model` is null
  // in the permanently-degraded state.
  struct Generation {
    std::unique_ptr<core::GroupSaModel> model;
    uint64_t number = 0;
  };

  // A request as Submit() maps it, once: the engine query (`kind` and
  // `ids` — the user, the group or the members, which are also the rows of
  // `exclude` whose seen items an answer skips) plus what answering it
  // needs.
  struct Work {
    core::QueryKind kind = core::QueryKind::kUser;
    std::vector<int32_t> ids;
    int k = 0;
    const data::InteractionMatrix* exclude = nullptr;  // null: skip none
    Request::Chaos chaos;
    uint64_t id = 0;
    uint64_t deadline_tick = 0;  // absolute, resolved at admission (0 = none)
  };

  struct Job {
    Work work;
    std::promise<Response> promise;
  };

  // Per-worker supervision slot. Ownership protocol: a worker installs the
  // job it is processing under `mu` and takes it back before resolving;
  // the supervisor may steal an installed job from a hanging owner (and
  // bump `epoch` to abandon that owner). Whoever holds the Job resolves
  // it — exactly once, whatever the race.
  struct Slot {
    DebugMutex mu{"serve.slot"};
    DebugCondVar cv;
    bool alive GROUPSA_GUARDED_BY(mu) = false;    // a loop owns this slot
    bool hanging GROUPSA_GUARDED_BY(mu) = false;  // parked in simulated hang
    bool has_job GROUPSA_GUARDED_BY(mu) = false;  // `job` is installed
    Job job GROUPSA_GUARDED_BY(mu);
    bool release GROUPSA_GUARDED_BY(mu) = false;  // shutdown: unstick owner
    uint64_t epoch GROUPSA_GUARDED_BY(mu) = 0;    // bumped per restart
    int64_t restarts GROUPSA_GUARDED_BY(mu) = 0;
  };

  enum class PushResult { kOk, kFull, kClosed };

  // Builds a Generation from `checkpoint_path` via the factory.
  Status BuildGeneration(const std::string& checkpoint_path,
                         std::shared_ptr<Generation>* out);

  std::shared_ptr<Generation> CurrentGeneration() const;

  // Queue operations (bounded deque + cv under one mutex).
  PushResult TryPush(Job* job);
  bool PopBlocking(Job* out);  // false once closed and drained
  void CloseQueue();
  // Puts a rescued job back at the head of the queue; if the queue closed
  // in the meantime, serves it on the calling (supervisor) thread instead.
  void RequeueFront(Job job);

  void WorkerLoop(int slot_index, uint64_t epoch);
  void SupervisorLoop();
  // One supervisor sweep: rescue hung workers, fire a due reload retry.
  void SuperviseOnce();

  // Serves one dequeued job (pop-time expiry check, then Process) and
  // resolves its promise with full counter bookkeeping.
  void CompleteJob(Job job);
  // Pop-time expiry check + model path with breaker routing and retries.
  Response AnswerJob(const Work& work);
  Response Process(const Work& work);

  // The popularity answer (shed, breaker-open, injected-fault and no-model
  // paths).
  Response DegradedAnswer(const Generation& gen, const Work& work,
                          std::string reason) const;

  // Reload guts shared by the public call and the background retry.
  Status ReloadOnce(const std::string& checkpoint_path);
  void ArmReloadRetry(const std::string& checkpoint_path);

  const ServeConfig config_;
  const ModelFactory factory_;
  const std::string checkpoint_path_;
  const std::vector<double> popularity_;  // interaction count per item
  const int num_users_;
  const int num_groups_;
  const data::InteractionMatrix* const user_exclude_;
  const data::InteractionMatrix* const group_exclude_;

  // Internally synchronized (their own atomics / DebugMutex).
  VirtualClock clock_ GROUPSA_NOT_GUARDED("internally synchronized");
  CircuitBreaker breaker_ GROUPSA_NOT_GUARDED("internally synchronized");

  mutable DebugMutex gen_mu_{"serve.generation"};
  // null until Start()
  std::shared_ptr<Generation> generation_ GROUPSA_GUARDED_BY(gen_mu_);
  uint64_t next_generation_ GROUPSA_GUARDED_BY(gen_mu_) = 0;
  // set by Stop() before the drain; bars late swaps
  bool stopping_ GROUPSA_GUARDED_BY(gen_mu_) = false;
  // Serializes Reload() bodies; a reload holds it across its generation
  // swap (gen_mu_) and its retry re-arm (supervisor_mu_).
  DebugMutex reload_mu_ GROUPSA_ACQUIRED_BEFORE(gen_mu_, supervisor_mu_){
      "serve.reload"};

  mutable DebugMutex queue_mu_{"serve.queue"};
  DebugCondVar queue_cv_;
  std::deque<Job> queue_ GROUPSA_GUARDED_BY(queue_mu_);
  bool queue_closed_ GROUPSA_GUARDED_BY(queue_mu_) = true;  // opened by Start
  bool paused_ GROUPSA_GUARDED_BY(queue_mu_) = false;

  // One per worker, fixed at Start: the vector is written only before the
  // worker loops exist (Start) and after they joined (Stop); each Slot
  // guards its own fields.
  std::vector<std::unique_ptr<Slot>> slots_ GROUPSA_NOT_GUARDED(
      "resized only before workers start / after they join");

  // Supervisor state: sweep wake-ups plus the pending background reload
  // retry (armed by a failed Reload, fired once its due tick passes).
  mutable DebugMutex supervisor_mu_{"serve.supervisor"};
  DebugCondVar supervisor_cv_;
  bool supervisor_stop_ GROUPSA_GUARDED_BY(supervisor_mu_) = false;
  struct PendingReload {
    bool active = false;
    std::string path;
    int attempt = 0;        // next attempt number (1-based)
    uint64_t due_tick = 0;  // fire once clock_.Now() >= due_tick
  };
  PendingReload pending_reload_ GROUPSA_GUARDED_BY(supervisor_mu_);

  // Created by Start() before any loop runs, destroyed by Stop() after
  // every loop joined; the pool synchronizes its own queue.
  std::unique_ptr<parallel::ThreadPool> pool_ GROUPSA_NOT_GUARDED(
      "Start/Stop protocol");
  std::atomic<bool> running_{false};

  std::atomic<uint64_t> next_id_{0};
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> expired_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> degraded_{0};
  std::atomic<int64_t> invalid_{0};
  std::atomic<int64_t> expired_queue_{0};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> worker_faults_{0};
  std::atomic<int64_t> hangs_rescued_{0};
  std::atomic<int64_t> worker_restarts_{0};
  std::atomic<int64_t> reloads_{0};
  std::atomic<int64_t> failed_reloads_{0};
  std::atomic<int64_t> reload_retry_attempts_{0};
  std::atomic<int64_t> peak_queue_depth_{0};
};

}  // namespace groupsa::serve

#endif  // GROUPSA_SERVE_SERVER_H_
