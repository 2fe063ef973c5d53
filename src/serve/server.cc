#include "serve/server.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/topk.h"

namespace groupsa::serve {

Server::Server(const ServeConfig& config, ModelFactory factory,
               std::string checkpoint_path, const data::EdgeList& popularity,
               int num_users, int num_groups, int num_items,
               const data::InteractionMatrix* user_exclude,
               const data::InteractionMatrix* group_exclude)
    : config_(config),
      factory_(std::move(factory)),
      checkpoint_path_(std::move(checkpoint_path)),
      popularity_(core::ItemCounts(popularity, num_items)),
      num_users_(num_users),
      num_groups_(num_groups),
      user_exclude_(user_exclude),
      group_exclude_(group_exclude),
      breaker_(config.breaker) {
  GROUPSA_CHECK(config_.workers >= 1, "ServeConfig::workers must be >= 1");
  GROUPSA_CHECK(config_.queue_depth >= 1,
                "ServeConfig::queue_depth must be >= 1");
  GROUPSA_CHECK(config_.reload_retries >= 0,
                "ServeConfig::reload_retries must be >= 0");
  GROUPSA_CHECK(factory_ != nullptr, "Server requires a model factory");
  GROUPSA_CHECK(user_exclude_ == nullptr ||
                    user_exclude_->num_rows() == num_users_,
                "Server user exclude matrix needs one row per user");
  GROUPSA_CHECK(group_exclude_ == nullptr ||
                    group_exclude_->num_rows() == num_groups_,
                "Server group exclude matrix needs one row per group");
}

Server::~Server() { Stop(); }

Status Server::BuildGeneration(const std::string& checkpoint_path,
                               std::shared_ptr<Generation>* out) {
  std::unique_ptr<core::GroupSaModel> model;
  GROUPSA_RETURN_IF_ERROR_CTX(factory_(checkpoint_path, &model),
                              "build model generation");
  // The door validated every request against the server's id spaces; a
  // model with other ones would take ids the engine cannot serve.
  const int num_items = static_cast<int>(popularity_.size());
  if (model != nullptr &&
      (model->num_users() != num_users_ ||
       model->num_groups() != num_groups_ || model->num_items() != num_items)) {
    return Status::Error(StrFormat(
        "build model generation: model has %d users, %d groups, %d items; "
        "the server serves %d, %d, %d",
        model->num_users(), model->num_groups(), model->num_items(),
        num_users_, num_groups_, num_items));
  }
  auto gen = std::make_shared<Generation>();
  core::InferenceEngine* engine =
      model != nullptr ? &model->inference() : nullptr;
  if (engine != nullptr && config_.topk == core::TopKMode::kIvf) {
    engine->set_index_config(config_.index);
    engine->set_topk_mode(core::TopKMode::kIvf);
    // Pay the k-means build here, while the previous generation (if any) is
    // still serving; the swap publishes a generation whose index is warm.
    engine->GetOrBuildIndex();
  }
  if (engine != nullptr && config_.score == core::ScoreMode::kInt8) {
    engine->set_int8_config(config_.int8);
    engine->set_score_mode(core::ScoreMode::kInt8);
    // Same eager-build contract as the IVF index: quantize the item tables
    // before the swap so no request thread ever pays for it.
    engine->GetQuantState();
  }
  gen->model = std::move(model);
  *out = std::move(gen);
  return Status::Ok();
}

Status Server::Start() {
  GROUPSA_CHECK(!running_, "Server::Start on a running server");
  std::shared_ptr<Generation> gen;
  GROUPSA_RETURN_IF_ERROR_CTX(BuildGeneration(checkpoint_path_, &gen),
                              "serve start");
  {
    std::lock_guard<DebugMutex> lock(gen_mu_);
    stopping_ = false;
    gen->number = ++next_generation_;
    generation_ = std::move(gen);
  }
  {
    std::lock_guard<DebugMutex> lock(queue_mu_);
    queue_closed_ = false;
  }
  {
    std::lock_guard<DebugMutex> lock(supervisor_mu_);
    supervisor_stop_ = false;
    supervisor_running_ = config_.supervise;
    pending_reload_.active = false;
  }
  slots_.clear();
  for (int i = 0; i < config_.workers; ++i) {
    auto slot = std::make_unique<Slot>();
    {
      // Uncontended (no worker loop exists yet), but guarded state.
      std::lock_guard<DebugMutex> lock(slot->mu);
      slot->alive = true;
      slot->epoch = 1;
    }
    slots_.push_back(std::move(slot));
  }
  // Pool width: W worker loops + the supervisor + one spare, so that a
  // replacement WorkerLoop posted mid-rescue never has to wait for the
  // thread of the very worker it is replacing. ThreadPool(n) spawns n-1
  // workers and Post() needs a spawned worker, hence the +3.
  pool_ = std::make_unique<parallel::ThreadPool>(config_.workers + 3);
  for (int i = 0; i < config_.workers; ++i)
    pool_->Post([this, i] { WorkerLoop(i, /*epoch=*/1); });
  if (config_.supervise) pool_->Post([this] { SupervisorLoop(); });
  running_ = true;
  return Status::Ok();
}

void Server::Stop() {
  if (!running_) return;
  {
    // Bars any in-flight Reload from swapping a generation in after the
    // drain: once this flag is up, "the generation that served last" is
    // final.
    std::lock_guard<DebugMutex> lock(gen_mu_);
    stopping_ = true;
  }
  {
    std::unique_lock<DebugMutex> lock(supervisor_mu_);
    supervisor_stop_ = true;
    pending_reload_.active = false;
    supervisor_cv_.notify_all();
    // A rescue posts the slot's replacement loop through pool_, which
    // pool_.reset() below nulls before the pool joins: let the supervisor
    // return first.
    supervisor_cv_.wait(lock, [this] { return !supervisor_running_; });
  }
  CloseQueue();
  // Worker loops drain the queue and return (hung owners were released by
  // CloseQueue and self-serve their held job); the pool destructor joins
  // them along with the supervisor.
  pool_.reset();
  running_ = false;
}

bool Server::running() const { return running_; }

std::shared_ptr<Server::Generation> Server::CurrentGeneration() const {
  std::lock_guard<DebugMutex> lock(gen_mu_);
  return generation_;
}

uint64_t Server::generation() const {
  const std::shared_ptr<Generation> gen = CurrentGeneration();
  return gen == nullptr ? 0 : gen->number;
}

// ---------------------------------------------------------------------------
// Bounded admission queue
// ---------------------------------------------------------------------------

Server::PushResult Server::TryPush(Job* job) {
  int64_t depth = 0;
  {
    std::lock_guard<DebugMutex> lock(queue_mu_);
    if (queue_closed_) return PushResult::kClosed;
    if (static_cast<int>(queue_.size()) >= config_.queue_depth)
      return PushResult::kFull;
    queue_.push_back(std::move(*job));
    depth = static_cast<int64_t>(queue_.size());
  }
  // Monotone max over racing updates.
  int64_t seen = peak_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !peak_queue_depth_.compare_exchange_weak(
             seen, depth, std::memory_order_relaxed)) {
  }
  queue_cv_.notify_one();
  return PushResult::kOk;
}

bool Server::PopBlocking(Job* out) {
  std::unique_lock<DebugMutex> lock(queue_mu_);
  // A paused worker parks here even with work queued; closing the queue
  // overrides the pause so shutdown always drains.
  queue_cv_.wait(lock, [this] {
    return queue_closed_ || (!paused_ && !queue_.empty());
  });
  if (queue_.empty()) return false;  // closed and drained
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void Server::Pause() {
  std::lock_guard<DebugMutex> lock(queue_mu_);
  paused_ = true;
}

void Server::Resume() {
  {
    std::lock_guard<DebugMutex> lock(queue_mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void Server::CloseQueue() {
  {
    std::lock_guard<DebugMutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  // Release hung owners: a worker parked in a simulated hang wakes, finds
  // its job still installed, and serves it before exiting — shutdown never
  // strands a request inside a slot.
  for (const std::unique_ptr<Slot>& slot : slots_) {
    {
      std::lock_guard<DebugMutex> lock(slot->mu);
      slot->release = true;
    }
    slot->cv.notify_all();
  }
}

void Server::RequeueFront(Job job) {
  {
    std::unique_lock<DebugMutex> lock(queue_mu_);
    if (!queue_closed_) {
      queue_.push_front(std::move(job));
      lock.unlock();
      queue_cv_.notify_one();
      return;
    }
  }
  // Shutdown raced the rescue: the drain may already be past this job's
  // place in line, so serve it right here on the supervisor thread. The
  // supervisor owns the Job, so exactly-once resolution still holds.
  CompleteJob(std::move(job));
}

// ---------------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------------

std::future<Response> Server::Submit(Request req) {
  Job job;
  Work& work = job.work;
  work.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::future<Response> future = job.promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Every submission is one tick of virtual time — the clock measures
  // traffic, never the wall.
  const uint64_t now = clock_.Advance();

  const auto resolve = [&job](Response r) {
    r.id = job.work.id;
    job.promise.set_value(std::move(r));
  };

  // Front-door fault injection: an error here models a failure before the
  // request ever reaches the queue (a torn read off the wire). The request
  // still resolves — rejected, never dropped.
  if (GROUPSA_FAILPOINT("serve.submit") != failpoint::Action::kNone) {
    Response r;
    r.rejected = true;
    r.error = "injected fault at serve.submit";
    rejected_.fetch_add(1, std::memory_order_relaxed);
    resolve(std::move(r));
    return future;
  }

  // The one validation: map the request to its engine query and check it.
  // A malformed request gets a reason, not a crash deeper in the stack and
  // not a silent degraded ranking for an entity that does not exist.
  switch (req.kind) {
    case Request::Kind::kUser:
      work.kind = core::QueryKind::kUser;
      work.ids = {req.user};
      break;
    case Request::Kind::kGroup:
      work.kind = core::QueryKind::kGroup;
      work.ids = {req.group};
      break;
    case Request::Kind::kMembers:
      work.kind = core::QueryKind::kMembers;
      work.ids = std::move(req.members);
      break;
  }
  if (Status s = core::ValidateQuery(work.kind, work.ids, req.k, num_users_,
                                     num_groups_);
      !s.ok()) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.rejected = true;
    r.error = "invalid request: " + s.message();
    resolve(std::move(r));
    return future;
  }
  work.k = req.k;
  if (req.exclude_seen) {
    work.exclude = work.kind == core::QueryKind::kGroup ? group_exclude_
                                                        : user_exclude_;
  }
  work.chaos = req.chaos;

  // Resolve the deadline: client absolute tick wins, then the request's
  // own budget, then the server-wide default.
  uint64_t deadline_tick = req.deadline_tick;
  if (deadline_tick == 0) {
    const uint64_t budget =
        req.deadline_ticks != 0 ? req.deadline_ticks : config_.deadline_ticks;
    deadline_tick = DeadlineFromBudget(now, budget);
  }
  if (DeadlineExpired(deadline_tick, now)) {
    // Dead on arrival: the carried deadline already passed. Cheapest
    // possible resolution — no queue slot, no worker, no ranking.
    expired_.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.expired = true;
    r.error = DescribeExpiry(deadline_tick);
    resolve(std::move(r));
    return future;
  }

  work.deadline_tick = deadline_tick;
  switch (TryPush(&job)) {
    case PushResult::kOk:
      admitted_.fetch_add(1, std::memory_order_relaxed);
      return future;
    case PushResult::kFull: {
      if (config_.overload == ServeConfig::OverloadPolicy::kShedToFallback) {
        // Shed on the caller thread: popularity is O(items log k) with no
        // model work, so the overload path stays cheap under pressure.
        Response r = DegradedAnswer(*CurrentGeneration(), work,
                                    "admission queue full");
        r.shed = true;
        shed_.fetch_add(1, std::memory_order_relaxed);
        job.promise.set_value(std::move(r));
      } else {
        Response r;
        r.rejected = true;
        r.error = "admission queue full";
        rejected_.fetch_add(1, std::memory_order_relaxed);
        resolve(std::move(r));
      }
      return future;
    }
    case PushResult::kClosed: {
      Response r;
      r.rejected = true;
      r.error = "server not running";
      rejected_.fetch_add(1, std::memory_order_relaxed);
      resolve(std::move(r));
      return future;
    }
  }
  GROUPSA_CHECK(false, "unreachable TryPush result");
  return future;
}

Response Server::Call(Request req) { return Submit(std::move(req)).get(); }

void Server::WorkerLoop(int slot_index, uint64_t epoch) {
  Slot& slot = *slots_[static_cast<size_t>(slot_index)];
  for (;;) {
    Job job;
    if (!PopBlocking(&job)) break;
    // Decide the hang simulation before installing the job: once installed
    // it belongs to the slot and the supervisor may steal it at any time.
    const bool hang =
        job.work.chaos.hang ||
        GROUPSA_FAILPOINT("serve.worker.hang") != failpoint::Action::kNone;
    const Work work = job.work;
    {
      std::lock_guard<DebugMutex> lock(slot.mu);
      slot.job = std::move(job);
      slot.has_job = true;
    }
    if (hang) {
      // Simulated stuck worker: park on the slot until the supervisor
      // steals the job (and abandons this owner) or shutdown releases us.
      std::unique_lock<DebugMutex> lock(slot.mu);
      slot.hanging = true;
      slot.cv.wait(lock, [&] {
        return slot.release || !slot.has_job || slot.epoch != epoch;
      });
      if (slot.epoch != epoch) return;  // abandoned: a replacement owns this slot
      slot.hanging = false;
      if (!slot.has_job) continue;  // stolen without a restart (defensive)
      // Released at shutdown: fall through and self-serve the held job.
    }
    Response r = AnswerJob(work);
    Job reclaimed;
    {
      std::lock_guard<DebugMutex> lock(slot.mu);
      if (slot.epoch != epoch) return;  // abandoned mid-flight
      if (!slot.has_job) continue;      // stolen mid-flight; discard ours
      reclaimed = std::move(slot.job);
      slot.has_job = false;
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (r.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
    clock_.Advance();  // every completion is the other tick of virtual time
    reclaimed.promise.set_value(std::move(r));
  }
  std::lock_guard<DebugMutex> lock(slot.mu);
  if (slot.epoch == epoch) slot.alive = false;
}

void Server::CompleteJob(Job job) {
  Response r = AnswerJob(job.work);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (r.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
  clock_.Advance();
  job.promise.set_value(std::move(r));
}

Response Server::AnswerJob(const Work& work) {
  // Pop-time expiry: a request that outlived its deadline in the queue is
  // resolved before any scoring work — the whole point of a deadline is
  // not to burn model time on an answer nobody is waiting for.
  if (DeadlineExpired(work.deadline_tick, clock_.Now())) {
    expired_queue_.fetch_add(1, std::memory_order_relaxed);
    Response r;
    r.id = work.id;
    r.expired = true;
    r.error = DescribeExpiry(work.deadline_tick);
    return r;
  }
  return Process(work);
}

Response Server::DegradedAnswer(const Generation& gen, const Work& work,
                                std::string reason) const {
  Response r;
  r.id = work.id;
  r.items = core::TopKItems(popularity_, work.k,
                            core::SeenByAny(work.exclude, work.ids));
  r.degraded = true;
  r.error = std::move(reason);
  r.generation = gen.number;
  return r;
}

Response Server::Process(const Work& work) {
  const std::shared_ptr<Generation> gen = CurrentGeneration();

  // Circuit breaker routing. An open breaker short-circuits the whole
  // model path (retries included) to the popularity fallback; half-open
  // admits a bounded number of probes.
  const CircuitBreaker::Route route = breaker_.Admit(clock_.Now());
  if (route == CircuitBreaker::Route::kFallback)
    return DegradedAnswer(*gen, work, "circuit breaker open");

  const int max_retries = std::max(0, config_.backoff.max_retries);
  uint64_t backoff_spent = 0;  // virtual ticks this request burned waiting
  for (int attempt = 0;; ++attempt) {
    // Transient model-path faults come from the deterministic per-request
    // chaos bits (first N attempts fault) or the hit-counted
    // "serve.worker" failpoint (error and corrupt both map to "the model
    // path is unusable for this attempt"; kill is the crash-test hammer
    // and never returns).
    const bool injected =
        attempt < static_cast<int>(work.chaos.fault_attempts) ||
        GROUPSA_FAILPOINT("serve.worker") != failpoint::Action::kNone;
    if (!injected) {
      // The door validated `work` against the id spaces every generation's
      // model shares, so the engine's unchecked call is safe. A generation
      // without a model is the configured steady state, not a model
      // failure: both outcomes count as successes for the breaker.
      Response r;
      if (gen->model == nullptr) {
        r = DegradedAnswer(*gen, work, "model unavailable");
      } else {
        core::InferenceEngine& engine = gen->model->inference();
        const std::vector<int32_t>& ids = work.ids;
        r.id = work.id;
        r.items =
            work.kind == core::QueryKind::kUser
                ? engine.RecommendForUser(ids[0], work.k, work.exclude)
            : work.kind == core::QueryKind::kGroup
                ? engine.RecommendForGroup(ids[0], work.k, work.exclude)
                : engine.RecommendForMembers(ids, work.k, work.exclude);
        r.generation = gen->number;
      }
      breaker_.RecordSuccess(route);
      r.retries = attempt;
      return r;
    }
    worker_faults_.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= max_retries) {
      breaker_.RecordFailure(route, clock_.Now());
      Response r = DegradedAnswer(*gen, work, "injected fault at serve.worker");
      r.retries = attempt;
      return r;
    }
    // Retry with backoff. The delay does not sleep: it is charged against
    // the request's own deadline budget, so a retrying request is strictly
    // closer to expiry than one that succeeded first try.
    retries_.fetch_add(1, std::memory_order_relaxed);
    backoff_spent += BackoffDelayTicks(config_.backoff, work.id, attempt);
    if (DeadlineExpired(work.deadline_tick, clock_.Now() + backoff_spent)) {
      breaker_.RecordFailure(route, clock_.Now());
      expired_queue_.fetch_add(1, std::memory_order_relaxed);
      Response r;
      r.id = work.id;
      r.expired = true;
      r.retries = attempt;
      r.error = DescribeExpiry(work.deadline_tick) + " during retry backoff";
      return r;
    }
  }
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

void Server::SupervisorLoop() {
  const auto poll =
      std::chrono::milliseconds(std::max(1, config_.supervisor_poll_ms));
  for (;;) {
    {
      std::unique_lock<DebugMutex> lock(supervisor_mu_);
      supervisor_cv_.wait_for(lock, poll);
      if (supervisor_stop_) {
        supervisor_running_ = false;
        supervisor_cv_.notify_all();
        return;
      }
    }
    SuperviseOnce();
  }
}

void Server::SuperviseOnce() {
  // Rescue hung workers: steal the installed job back, requeue it at the
  // front (it has already waited its turn once), abandon the stuck owner
  // and post a replacement loop for the slot. Double processing is
  // impossible — the job moves under the slot mutex — and even a lost
  // race would be harmless, because a response is a pure function of
  // (request, generation).
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = *slots_[i];
    Job job;
    uint64_t new_epoch = 0;
    {
      std::lock_guard<DebugMutex> lock(slot.mu);
      if (!slot.alive || !slot.hanging || slot.release || !slot.has_job)
        continue;
      job = std::move(slot.job);
      slot.has_job = false;
      slot.hanging = false;
      new_epoch = ++slot.epoch;
      ++slot.restarts;
    }
    // Wake the abandoned owner so its thread returns to the pool.
    slot.cv.notify_all();
    hangs_rescued_.fetch_add(1, std::memory_order_relaxed);
    worker_restarts_.fetch_add(1, std::memory_order_relaxed);
    // The hang modeled a stuck *worker*, not a poisoned request: the
    // rescued job must not hang whoever serves it next.
    job.work.chaos.hang = false;
    RequeueFront(std::move(job));
    const int slot_index = static_cast<int>(i);
    pool_->Post(
        [this, slot_index, new_epoch] { WorkerLoop(slot_index, new_epoch); });
  }

  // Fire a due background reload retry.
  std::string path;
  int attempt = 0;
  {
    std::lock_guard<DebugMutex> lock(supervisor_mu_);
    if (!pending_reload_.active || clock_.Now() < pending_reload_.due_tick)
      return;
    path = pending_reload_.path;
    attempt = pending_reload_.attempt;
    pending_reload_.active = false;
  }
  reload_retry_attempts_.fetch_add(1, std::memory_order_relaxed);
  Status s;
  {
    std::lock_guard<DebugMutex> reload_lock(reload_mu_);
    s = ReloadOnce(path);
  }
  if (!s.ok() && attempt < config_.reload_retries) {
    std::lock_guard<DebugMutex> lock(supervisor_mu_);
    // A newer explicit Reload may have re-armed the slot in the meantime;
    // its schedule wins.
    if (!pending_reload_.active) {
      pending_reload_.active = true;
      pending_reload_.path = path;
      pending_reload_.attempt = attempt + 1;
      pending_reload_.due_tick =
          clock_.Now() + BackoffDelayTicks(config_.backoff, /*key=*/0, attempt);
    }
  }
}

// ---------------------------------------------------------------------------
// Hot reload
// ---------------------------------------------------------------------------

Status Server::ReloadOnce(const std::string& checkpoint_path) {
  // Build-phase fault: a reload that cannot stage its new generation
  // (missing/torn checkpoint, injected error) leaves the old one serving.
  if (GROUPSA_FAILPOINT("serve.reload.build") != failpoint::Action::kNone) {
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    return Status::Error("injected fault at serve.reload.build");
  }
  std::shared_ptr<Generation> gen;
  if (Status s = BuildGeneration(checkpoint_path, &gen); !s.ok()) {
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    return s.WithContext("serve reload");
  }
  // The swap site: a kill here models a crash mid-swap (the staged
  // generation is process-local, and checkpoint v2's atomic write keeps
  // the on-disk state the restart's last good version); an error action
  // models the swap itself failing — all-or-nothing, the old generation
  // keeps serving.
  if (GROUPSA_FAILPOINT("serve.reload.swap") != failpoint::Action::kNone) {
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    return Status::Error("injected fault at serve.reload.swap");
  }
  {
    std::lock_guard<DebugMutex> lock(gen_mu_);
    // Reload vs Stop: once Stop() has begun the drain, no new generation
    // may swap in — workers may already be gone, and a generation that
    // never serves a request must not become "current".
    if (stopping_) {
      failed_reloads_.fetch_add(1, std::memory_order_relaxed);
      return Status::Error("reload abandoned: server stopping");
    }
    gen->number = ++next_generation_;
    generation_ = std::move(gen);
  }
  // A fresh model deserves a fresh window: breaker state reflects the
  // current generation only (the trip/close counters are lifetime-scoped
  // and survive the reset).
  breaker_.Reset();
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void Server::ArmReloadRetry(const std::string& checkpoint_path) {
  // Retries fire from the supervisor loop, so they need one to be running.
  if (config_.reload_retries < 1 || !config_.supervise) return;
  {
    std::lock_guard<DebugMutex> lock(gen_mu_);
    if (stopping_) return;
  }
  std::lock_guard<DebugMutex> lock(supervisor_mu_);
  pending_reload_.active = true;
  pending_reload_.path = checkpoint_path;
  pending_reload_.attempt = 1;
  pending_reload_.due_tick =
      clock_.Now() + BackoffDelayTicks(config_.backoff, /*key=*/0, 0);
}

Status Server::Reload(const std::string& checkpoint_path) {
  std::lock_guard<DebugMutex> reload_lock(reload_mu_);
  {
    // A fresh explicit reload supersedes any pending background retry.
    std::lock_guard<DebugMutex> lock(supervisor_mu_);
    pending_reload_.active = false;
  }
  Status s = ReloadOnce(checkpoint_path);
  if (!s.ok()) ArmReloadRetry(checkpoint_path);
  return s;
}

// ---------------------------------------------------------------------------
// Stats and health
// ---------------------------------------------------------------------------

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.expired_queue = expired_queue_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.worker_faults = worker_faults_.load(std::memory_order_relaxed);
  s.hangs_rescued = hangs_rescued_.load(std::memory_order_relaxed);
  s.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.failed_reloads = failed_reloads_.load(std::memory_order_relaxed);
  s.reload_retry_attempts =
      reload_retry_attempts_.load(std::memory_order_relaxed);
  const CircuitBreaker::Counters breaker = breaker_.counters();
  s.breaker_trips = breaker.trips;
  s.breaker_reopens = breaker.reopens;
  s.breaker_closes = breaker.closes;
  s.breaker_probes = breaker.probes;
  s.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  s.breaker_state = static_cast<int>(breaker_.state());
  s.now_tick = clock_.Now();
  return s;
}

ServerHealth Server::Health() const {
  ServerHealth h;
  h.running = running_;
  {
    std::lock_guard<DebugMutex> lock(queue_mu_);
    h.accepting = !queue_closed_;
    h.paused = paused_;
    h.queue_depth = static_cast<int>(queue_.size());
  }
  h.now_tick = clock_.Now();
  h.generation = generation();
  h.breaker = breaker_.state();
  {
    std::lock_guard<DebugMutex> lock(supervisor_mu_);
    h.reload_retry_pending = pending_reload_.active;
  }
  h.workers.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const std::unique_ptr<Slot>& slot = slots_[i];
    std::lock_guard<DebugMutex> lock(slot->mu);
    ServerHealth::Worker w;
    w.slot = static_cast<int>(i);
    w.alive = slot->alive;
    w.busy = slot->has_job;
    w.hanging = slot->hanging;
    w.job_id = slot->has_job ? slot->job.work.id : 0;
    w.restarts = slot->restarts;
    h.workers.push_back(w);
  }
  return h;
}

}  // namespace groupsa::serve
