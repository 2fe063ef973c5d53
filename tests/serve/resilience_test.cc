// Resilience-layer suite: deadlines, retry/backoff, the circuit breaker,
// worker supervision and reload retries — each exercised deterministically.
// Serialized Call()s drive the breaker scenes (one request in flight at a
// time makes every virtual-clock reading a pure function of the scene);
// Pause() plus invalid-request clock fillers age queued requests past their
// deadlines without racing the workers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "serve/circuit_breaker.h"
#include "serve/harness.h"
#include "serve/server.h"
#include "serve/serve_test_util.h"

namespace groupsa::serve {
namespace {

using serve::testing::ServeRig;

class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

Request UserRequest(int user, int k = 4) {
  Request r;
  r.kind = Request::Kind::kUser;
  r.user = user;
  r.k = k;
  return r;
}

// The engine query a request names: its kind, and the user, the group or
// the members.
core::QueryKind QueryKindOf(const Request& r) {
  switch (r.kind) {
    case Request::Kind::kUser:
      return core::QueryKind::kUser;
    case Request::Kind::kGroup:
      return core::QueryKind::kGroup;
    case Request::Kind::kMembers:
      return core::QueryKind::kMembers;
  }
  return core::QueryKind::kUser;
}

std::vector<int32_t> QueryIdsOf(const Request& r) {
  switch (r.kind) {
    case Request::Kind::kUser:
      return {r.user};
    case Request::Kind::kGroup:
      return {r.group};
    case Request::Kind::kMembers:
      return r.members;
  }
  return {};
}

// An invalid request is rejected before admission but still advances the
// virtual clock by its submission tick — the deadline tests use a burst of
// these to age queued requests without occupying queue slots.
Request ClockFiller() {
  Request r;
  r.kind = Request::Kind::kUser;
  r.user = 0;
  r.k = 0;  // invalid: k must be >= 1
  return r;
}

// ---------------------------------------------------------------------------
// Request validation
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, ValidationTableRejectsEveryMalformedShape) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  const int num_users = rig.fixture.world.dataset.num_users;
  const int num_groups = rig.fixture.world.dataset.groups.num_groups();

  struct Case {
    std::string name;
    Request request;
    std::string want_substring;
  };
  std::vector<Case> cases;
  {
    Case c{"k zero", UserRequest(0, 0), "k must be >= 1"};
    cases.push_back(c);
  }
  {
    Case c{"k negative", UserRequest(0, -3), "k must be >= 1"};
    cases.push_back(c);
  }
  {
    Case c{"user negative", UserRequest(-1), "user id -1 out of range"};
    cases.push_back(c);
  }
  {
    Case c{"user past range", UserRequest(num_users),
           "user id " + std::to_string(num_users) + " out of range"};
    cases.push_back(c);
  }
  {
    Request r;
    r.kind = Request::Kind::kGroup;
    r.group = num_groups;
    r.k = 3;
    Case c{"group past range", r,
           "group id " + std::to_string(num_groups) + " out of range"};
    cases.push_back(c);
  }
  {
    Request r;
    r.kind = Request::Kind::kGroup;
    r.group = -7;
    r.k = 3;
    Case c{"group negative", r, "group id -7 out of range"};
    cases.push_back(c);
  }
  {
    Request r;
    r.kind = Request::Kind::kMembers;
    r.k = 3;
    Case c{"members empty", r, "members list is empty"};
    cases.push_back(c);
  }
  {
    Request r;
    r.kind = Request::Kind::kMembers;
    r.members = {0, num_users};
    r.k = 3;
    Case c{"member past range",
           r, "member id " + std::to_string(num_users) + " out of range"};
    cases.push_back(c);
  }
  {
    Request r;
    r.kind = Request::Kind::kMembers;
    r.members = {2, 0, 2};
    r.k = 3;
    Case c{"duplicate member", r, "duplicate member id 2"};
    cases.push_back(c);
  }

  int64_t want_invalid = 0;
  for (const Case& c : cases) {
    const Response r = rig.server->Call(c.request);
    EXPECT_TRUE(r.rejected) << c.name;
    EXPECT_FALSE(r.degraded) << c.name;
    EXPECT_FALSE(r.expired) << c.name;
    EXPECT_TRUE(r.items.empty()) << c.name;
    EXPECT_NE(r.error.find("invalid request"), std::string::npos)
        << c.name << ": " << r.error;
    EXPECT_NE(r.error.find(c.want_substring), std::string::npos)
        << c.name << ": " << r.error;
    // One rule set: the engine rejects the same query for the same reason,
    // and the daemon only prefixes it.
    const Status engine = rig.oracle->inference().ValidateRequest(
        QueryKindOf(c.request), QueryIdsOf(c.request), c.request.k);
    EXPECT_FALSE(engine.ok()) << c.name;
    EXPECT_EQ(r.error, "invalid request: " + engine.message()) << c.name;
    ++want_invalid;
    EXPECT_EQ(rig.server->stats().invalid, want_invalid) << c.name;
  }

  // A well-formed request still sails through after all those rejections.
  const Response ok = rig.server->Call(UserRequest(0));
  EXPECT_FALSE(ok.rejected);
  EXPECT_FALSE(ok.degraded);
  EXPECT_EQ(ok.items.size(), 4u);

  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.invalid, static_cast<int64_t>(cases.size()));
  EXPECT_EQ(stats.rejected, stats.invalid);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.shed + stats.rejected + stats.expired);
  rig.server->Stop();
}

TEST_F(ResilienceTest, FuzzedGarbageNeverCrashesAndAlwaysResolves) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  const int num_users = rig.fixture.world.dataset.num_users;
  Rng rng(0xf00d);
  for (int i = 0; i < 300; ++i) {
    Request r;
    const int kind = rng.NextInt(3);
    r.kind = kind == 0   ? Request::Kind::kUser
             : kind == 1 ? Request::Kind::kGroup
                         : Request::Kind::kMembers;
    // Ids and k drawn from a range straddling valid and wildly invalid.
    r.user = rng.NextInt(3 * num_users) - num_users;
    r.group = rng.NextInt(40) - 15;
    r.k = rng.NextInt(12) - 2;
    const int members = rng.NextInt(5);
    for (int m = 0; m < members; ++m)
      r.members.push_back(rng.NextInt(2 * num_users) - num_users / 2);
    const Response response = rig.server->Call(r);
    // Exactly one terminal disposition, never a hang, never a crash.
    EXPECT_TRUE(response.rejected || response.shed || !response.items.empty() ||
                response.degraded)
        << FormatRequest(r) << " -> " << FormatResponse(response);
    if (response.rejected) {
      EXPECT_TRUE(response.items.empty());
    }
  }
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.submitted, 300);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.shed + stats.rejected + stats.expired);
  rig.server->Stop();
  EXPECT_EQ(rig.server->stats().admitted, rig.server->stats().completed);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, CarriedAbsoluteDeadlineExpiresAtTheDoor) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  // Burn a few ticks so the clock is well past tick 1.
  rig.server->Call(UserRequest(0));
  ASSERT_GT(rig.server->now_tick(), 1u);

  Request r = UserRequest(1);
  r.deadline_tick = 1;  // long past
  const Response response = rig.server->Call(r);
  EXPECT_TRUE(response.expired);
  EXPECT_FALSE(response.rejected);
  EXPECT_TRUE(response.items.empty());
  EXPECT_EQ(response.error, "deadline tick 1 expired");

  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.expired_queue, 0);  // never admitted, door-expired
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.shed + stats.rejected + stats.expired);
  rig.server->Stop();
}

TEST_F(ResilienceTest, QueuedRequestsExpireWhileThePipelineIsPaused) {
  ServeConfig sc;
  sc.workers = 2;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());

  // Park the workers, queue a burst with tight budgets, then age the queue
  // with clock fillers: every submission is one tick, so the burst's
  // deadlines pass while it is still queued, deterministically — no worker
  // races the expiry decision because no worker is running.
  rig.server->Pause();
  std::vector<std::future<Response>> burst;
  for (int i = 0; i < 3; ++i) {
    Request r = UserRequest(i);
    r.deadline_ticks = 2;  // expires two ticks after admission
    burst.push_back(rig.server->Submit(r));
  }
  std::vector<std::future<Response>> fillers;
  for (int i = 0; i < 10; ++i)
    fillers.push_back(rig.server->Submit(ClockFiller()));
  rig.server->Resume();

  for (std::future<Response>& f : burst) {
    const Response r = f.get();
    EXPECT_TRUE(r.expired) << FormatResponse(r);
    EXPECT_TRUE(r.items.empty());
    EXPECT_NE(r.error.find("expired"), std::string::npos);
  }
  for (std::future<Response>& f : fillers) EXPECT_TRUE(f.get().rejected);

  rig.server->Stop();
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.expired_queue, 3);  // admitted, then pop-expired
  EXPECT_EQ(stats.expired, 0);        // none were dead on arrival
  EXPECT_EQ(stats.invalid, 10);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.shed + stats.rejected + stats.expired);
  EXPECT_EQ(stats.admitted, stats.completed);
}

TEST_F(ResilienceTest, ServerWideDeadlineBudgetAppliesWhenRequestCarriesNone) {
  ServeConfig sc;
  sc.deadline_ticks = 2;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  rig.server->Pause();
  std::future<Response> victim = rig.server->Submit(UserRequest(0));
  std::vector<std::future<Response>> fillers;
  for (int i = 0; i < 6; ++i)
    fillers.push_back(rig.server->Submit(ClockFiller()));
  rig.server->Resume();
  EXPECT_TRUE(victim.get().expired);
  for (std::future<Response>& f : fillers) f.get();
  rig.server->Stop();
}

// ---------------------------------------------------------------------------
// Retry with backoff
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, RetriesAbsorbTransientFaultsWithoutDegrading) {
  ServeConfig sc;
  sc.backoff.max_retries = 3;
  // Breaker armed with a hair trigger: if a retry-absorbed fault counted as
  // a failure this scene would trip it. Request-final semantics keep it
  // closed.
  sc.breaker.enabled = true;
  sc.breaker.window = 4;
  sc.breaker.threshold = 1;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());

  Request r = UserRequest(2, 5);
  r.chaos.fault_attempts = 2;  // attempts 0 and 1 fault, attempt 2 serves
  const Response response = rig.server->Call(r);
  EXPECT_FALSE(response.degraded) << response.error;
  EXPECT_FALSE(response.expired);
  EXPECT_EQ(response.retries, 2);
  EXPECT_EQ(response.items,
            rig.Direct(UserRequest(2, 5)));  // the real model answer

  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.worker_faults, 2);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.breaker_trips, 0);  // absorbed faults are successes
  EXPECT_EQ(stats.breaker_state, 0);
  rig.server->Stop();
}

TEST_F(ResilienceTest, ExhaustedRetriesDegradeAndCountTheAttempts) {
  ServeConfig sc;
  sc.backoff.max_retries = 2;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  Request r = UserRequest(1);
  r.chaos.fault_attempts = 255;  // hard fault: every attempt fails
  const Response response = rig.server->Call(r);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.retries, 2);
  EXPECT_EQ(response.items.size(), 4u);  // popularity still answers
  EXPECT_NE(response.error.find("injected fault at serve.worker"),
            std::string::npos);
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.worker_faults, 3);  // initial attempt + 2 retries
  EXPECT_EQ(stats.retries, 2);
  rig.server->Stop();
}

TEST_F(ResilienceTest, BackoffTicksChargeTheDeadlineAndExpireTheRequest) {
  ServeConfig sc;
  sc.backoff.max_retries = 8;
  sc.backoff.base_ticks = 4;
  sc.backoff.jitter = 0.0;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  Request r = UserRequest(0);
  r.deadline_ticks = 3;        // tighter than one backoff delay
  r.chaos.fault_attempts = 255;
  const Response response = rig.server->Call(r);
  // The first retry's 4-tick delay overruns the 3-tick budget: the request
  // expires mid-retry instead of burning seven more attempts.
  EXPECT_TRUE(response.expired) << FormatResponse(response);
  EXPECT_NE(response.error.find("during retry backoff"), std::string::npos);
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.expired_queue, 1);
  EXPECT_EQ(stats.retries, 1);
  rig.server->Stop();
}

TEST_F(ResilienceTest, WorkerFailpointStillDegradesWithRetriesOff) {
  // The pre-resilience contract: with max_retries at its default of 0 the
  // hit-counted failpoint degrades exactly one response, same bytes as
  // before the retry layer existed.
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(failpoint::Arm("serve.worker=error@1"));
  const Response hit = rig.server->Call(UserRequest(0));
  EXPECT_TRUE(hit.degraded);
  EXPECT_EQ(hit.retries, 0);
  EXPECT_EQ(hit.error, "injected fault at serve.worker");
  const Response clean = rig.server->Call(UserRequest(0));
  EXPECT_FALSE(clean.degraded);
  rig.server->Stop();
}

// ---------------------------------------------------------------------------
// Circuit breaker (serialized scenes: Call() keeps one request in flight)
// ---------------------------------------------------------------------------

ServeConfig BreakerConfigForScenes() {
  ServeConfig sc;
  sc.workers = 1;
  sc.breaker.enabled = true;
  sc.breaker.window = 4;
  sc.breaker.threshold = 2;
  sc.breaker.open_ticks = 6;
  sc.breaker.probes = 1;
  return sc;
}

Request HardFault(int user = 0) {
  Request r = UserRequest(user);
  r.chaos.fault_attempts = 255;
  return r;
}

TEST_F(ResilienceTest, BreakerTripsExactlyAtTheThreshold) {
  ServeRig rig(BreakerConfigForScenes());
  ASSERT_TRUE(rig.server->Start().ok());

  // One failure: below threshold, still closed, model path still consulted.
  EXPECT_TRUE(rig.server->Call(HardFault()).degraded);
  EXPECT_EQ(rig.server->stats().breaker_trips, 0);
  EXPECT_EQ(rig.server->stats().breaker_state, 0);
  const Response before = rig.server->Call(UserRequest(1));
  EXPECT_FALSE(before.degraded);  // engine answered: breaker not in the way

  // Second failure inside the window: trips open.
  EXPECT_TRUE(rig.server->Call(HardFault()).degraded);
  // One success sits between the two failures, inside the window of 4, so
  // this is exactly failures == threshold — the boundary.
  EXPECT_EQ(rig.server->stats().breaker_trips, 1);
  EXPECT_EQ(rig.server->stats().breaker_state, 1);

  // While open, even a healthy request is short-circuited to popularity
  // without consulting the model.
  const Response blocked = rig.server->Call(UserRequest(1));
  EXPECT_TRUE(blocked.degraded);
  EXPECT_NE(blocked.error.find("circuit breaker open"), std::string::npos);
  rig.server->Stop();
}

TEST_F(ResilienceTest, BreakerHalfOpensProbesAndCloses) {
  ServeRig rig(BreakerConfigForScenes());
  ASSERT_TRUE(rig.server->Start().ok());
  EXPECT_TRUE(rig.server->Call(HardFault()).degraded);
  EXPECT_TRUE(rig.server->Call(HardFault()).degraded);
  ASSERT_EQ(rig.server->stats().breaker_trips, 1);

  // Each serialized Call advances the clock twice (submit + completion);
  // within open_ticks=6 of the trip requests short-circuit, then the next
  // one is admitted as a probe, succeeds, and closes the breaker.
  int short_circuited = 0;
  Response served;
  for (int i = 0; i < 20; ++i) {
    served = rig.server->Call(UserRequest(1));
    if (!served.degraded) break;
    EXPECT_NE(served.error.find("circuit breaker open"), std::string::npos);
    ++short_circuited;
  }
  EXPECT_FALSE(served.degraded) << "breaker never re-admitted the model";
  EXPECT_GT(short_circuited, 0);
  EXPECT_LT(short_circuited, 6);

  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.breaker_probes, 1);  // probes=1: one probe was enough
  EXPECT_EQ(stats.breaker_closes, 1);
  EXPECT_EQ(stats.breaker_reopens, 0);
  EXPECT_EQ(stats.breaker_state, 0);

  // Fully healthy again: the model path serves with no breaker routing.
  EXPECT_FALSE(rig.server->Call(UserRequest(2)).degraded);
  rig.server->Stop();
}

TEST_F(ResilienceTest, FailedProbeReopensTheBreaker) {
  ServeRig rig(BreakerConfigForScenes());
  ASSERT_TRUE(rig.server->Start().ok());
  EXPECT_TRUE(rig.server->Call(HardFault()).degraded);
  EXPECT_TRUE(rig.server->Call(HardFault()).degraded);
  ASSERT_EQ(rig.server->stats().breaker_trips, 1);

  // Ride out the cool-down with hard faults: the first one admitted as a
  // probe fails, snapping the breaker back open (a reopen, not a second
  // trip).
  for (int i = 0; i < 20; ++i) {
    rig.server->Call(HardFault());
    if (rig.server->stats().breaker_reopens > 0) break;
  }
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.breaker_reopens, 1);
  EXPECT_EQ(stats.breaker_trips, 1);
  EXPECT_EQ(stats.breaker_closes, 0);
  EXPECT_EQ(stats.breaker_state, 1);  // open again
  rig.server->Stop();
}

TEST_F(ResilienceTest, GenerationSwapResetsBreakerStateButKeepsCounters) {
  ServeRig rig(BreakerConfigForScenes());
  ASSERT_TRUE(rig.server->Start().ok());
  EXPECT_TRUE(rig.server->Call(HardFault()).degraded);
  EXPECT_TRUE(rig.server->Call(HardFault()).degraded);
  ASSERT_EQ(rig.server->stats().breaker_state, 1);

  ASSERT_TRUE(rig.server->Reload("<in-memory>").ok());
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.breaker_state, 0);  // fresh model, fresh window
  EXPECT_EQ(stats.breaker_trips, 1);  // history survives the reset
  EXPECT_FALSE(rig.server->Call(UserRequest(0)).degraded);
  rig.server->Stop();
}

// ---------------------------------------------------------------------------
// Worker supervision
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, SupervisorRescuesAHungWorkerWithoutDroppingTheJob) {
  ServeConfig sc;
  sc.workers = 1;  // the only worker hangs: the job MUST be stolen back
  sc.supervisor_poll_ms = 1;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());

  Request r = UserRequest(3, 5);
  r.chaos.hang = true;
  const Response rescued = rig.server->Call(r);
  // The response is the worker's normal answer: the hang cost latency, not
  // correctness (chaos.hang is cleared on rescue so the requeue serves).
  EXPECT_FALSE(rescued.degraded) << rescued.error;
  EXPECT_EQ(rescued.items, rig.Direct(UserRequest(3, 5)));

  ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.hangs_rescued, 1);
  EXPECT_EQ(stats.worker_restarts, 1);

  const ServerHealth health = rig.server->Health();
  ASSERT_EQ(health.workers.size(), 1u);
  EXPECT_EQ(health.workers[0].restarts, 1);
  EXPECT_TRUE(health.workers[0].alive);

  // The replacement worker carries normal traffic afterwards.
  EXPECT_FALSE(rig.server->Call(UserRequest(0)).degraded);
  rig.server->Stop();
  stats = rig.server->stats();
  EXPECT_EQ(stats.admitted, stats.completed);
}

TEST_F(ResilienceTest, HangFailpointTriggersTheSameRescuePath) {
  ServeConfig sc;
  sc.workers = 2;
  sc.supervisor_poll_ms = 1;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(failpoint::Arm("serve.worker.hang=error@1"));
  const Response rescued = rig.server->Call(UserRequest(1));
  EXPECT_FALSE(rescued.degraded);
  EXPECT_EQ(rig.server->stats().hangs_rescued, 1);
  rig.server->Stop();
}

TEST_F(ResilienceTest, StopReleasesAHungWorkerWithoutSupervision) {
  // With the supervisor off nobody rescues the job mid-flight — but Stop()
  // must still release the hung owner, which then self-serves the held job:
  // shutdown never strands a request inside a slot.
  ServeConfig sc;
  sc.workers = 1;
  sc.supervise = false;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  Request r = UserRequest(2);
  r.chaos.hang = true;
  std::future<Response> held = rig.server->Submit(r);
  // Give the worker a moment to pop and park (wall wait is fine in tests;
  // the assertion below does not depend on how long this takes).
  for (int i = 0; i < 200; ++i) {
    if (rig.server->Health().workers[0].hanging) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rig.server->Stop();
  const Response response = held.get();
  EXPECT_FALSE(response.degraded) << response.error;
  EXPECT_EQ(response.items, rig.Direct(UserRequest(2)));
  const ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.hangs_rescued, 0);  // released, not rescued
  EXPECT_EQ(stats.admitted, stats.completed);
}

// ---------------------------------------------------------------------------
// Reload: swap failpoint, Stop() interleaving, background retry
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, SwapFailpointFailsTheReloadAllOrNothing) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_EQ(rig.server->generation(), 1u);
  ASSERT_TRUE(failpoint::Arm("serve.reload.swap=error@1"));

  const Status s = rig.server->Reload("<in-memory>");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("serve.reload.swap"), std::string::npos);
  EXPECT_EQ(rig.server->generation(), 1u);  // old generation kept serving
  EXPECT_EQ(rig.server->stats().failed_reloads, 1);
  EXPECT_FALSE(rig.server->Call(UserRequest(0)).degraded);

  // Failpoint exhausted: the next reload swaps cleanly.
  EXPECT_TRUE(rig.server->Reload("<in-memory>").ok());
  EXPECT_EQ(rig.server->generation(), 2u);
  rig.server->Stop();
}

TEST_F(ResilienceTest, ReloadAfterStopIsRefusedNotSwapped) {
  ServeConfig sc;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(rig.server->Reload("<in-memory>").ok());
  ASSERT_EQ(rig.server->generation(), 2u);
  rig.server->Stop();
  const Status s = rig.server->Reload("<in-memory>");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("stopping"), std::string::npos) << s.message();
  EXPECT_EQ(rig.server->generation(), 2u);  // no post-join swap
}

TEST_F(ResilienceTest, ReloadRacingStopNeverSwapsAfterTheDrain) {
  // The regression this guards: a Reload captured before Stop() must not
  // complete its swap after the workers have been joined — the generation
  // that answered the last drained request is final.
  for (int round = 0; round < 5; ++round) {
    ServeConfig sc;
    sc.workers = 2;
    ServeRig rig(sc);
    ASSERT_TRUE(rig.server->Start().ok());
    std::atomic<bool> go{false};
    std::thread reloader([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 4; ++i) {
        const Status reload_status = rig.server->Reload("<in-memory>");
        (void)reload_status;  // either outcome is legal in this race
      }
    });
    for (int i = 0; i < 6; ++i) rig.server->Call(UserRequest(i % 3));
    go.store(true, std::memory_order_release);
    rig.server->Stop();
    const uint64_t at_stop = rig.server->generation();
    reloader.join();
    // Whatever the interleaving, no swap landed after Stop() returned.
    EXPECT_EQ(rig.server->generation(), at_stop) << "round " << round;
    const ServerStats stats = rig.server->stats();
    EXPECT_EQ(stats.admitted, stats.completed) << "round " << round;
  }
}

TEST_F(ResilienceTest, FailedReloadRetriesInTheBackgroundAndRecovers) {
  ServeConfig sc;
  sc.reload_retries = 3;
  sc.supervisor_poll_ms = 1;
  sc.backoff.base_ticks = 1;
  sc.backoff.jitter = 0.0;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ASSERT_TRUE(failpoint::Arm("serve.reload.build=error@1"));

  const Status s = rig.server->Reload("<in-memory>");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(rig.server->generation(), 1u);
  EXPECT_TRUE(rig.server->Health().reload_retry_pending);

  // The retry fires once the virtual clock passes its due tick — i.e. after
  // more traffic, not after wall time. Drive traffic until it lands.
  bool recovered = false;
  for (int i = 0; i < 500 && !recovered; ++i) {
    rig.server->Call(UserRequest(i % 4));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Wait for the counter as well as the swap: the supervisor bumps
    // `reloads` just after publishing the generation, so polling only the
    // generation could read stats in between.
    recovered =
        rig.server->generation() == 2u && rig.server->stats().reloads == 1;
  }
  EXPECT_TRUE(recovered) << "background retry never swapped the generation";
  EXPECT_EQ(rig.server->generation(), 2u);
  const ServerStats stats = rig.server->stats();
  EXPECT_GE(stats.reload_retry_attempts, 1);
  EXPECT_EQ(stats.reloads, 1);
  EXPECT_EQ(stats.failed_reloads, 1);
  EXPECT_FALSE(rig.server->Health().reload_retry_pending);
  rig.server->Stop();
}

// ---------------------------------------------------------------------------
// Jitter determinism across thread counts
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, BackoffJitterIsIdenticalAcrossThreadCounts) {
  BackoffPolicy policy;
  policy.base_ticks = 8;
  policy.max_ticks = 512;
  policy.jitter = 0.5;
  constexpr int kKeys = 512;
  constexpr int kAttempts = 4;
  std::vector<uint64_t> serial(kKeys * kAttempts);
  for (int key = 0; key < kKeys; ++key)
    for (int attempt = 0; attempt < kAttempts; ++attempt)
      serial[static_cast<size_t>(key * kAttempts + attempt)] =
          BackoffDelayTicks(policy, static_cast<uint64_t>(key), attempt);
  for (int threads : {2, 4, 8}) {
    std::vector<uint64_t> parallel_draws(kKeys * kAttempts);
    parallel::ThreadPool pool(threads);
    pool.ParallelFor(0, kKeys, /*grain=*/16, [&](int64_t begin, int64_t end) {
      for (int64_t key = begin; key < end; ++key)
        for (int attempt = 0; attempt < kAttempts; ++attempt)
          parallel_draws[static_cast<size_t>(key * kAttempts + attempt)] =
              BackoffDelayTicks(policy, static_cast<uint64_t>(key), attempt);
    });
    EXPECT_EQ(parallel_draws, serial) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Health snapshot
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, HealthReportsWorkersAndLifecycle) {
  ServeConfig sc;
  sc.workers = 3;
  ServeRig rig(sc);
  ASSERT_TRUE(rig.server->Start().ok());
  ServerHealth health = rig.server->Health();
  EXPECT_TRUE(health.running);
  EXPECT_TRUE(health.accepting);
  EXPECT_FALSE(health.paused);
  EXPECT_EQ(health.generation, 1u);
  EXPECT_EQ(health.breaker, BreakerState::kClosed);
  ASSERT_EQ(health.workers.size(), 3u);
  for (const ServerHealth::Worker& w : health.workers) {
    EXPECT_TRUE(w.alive);
    EXPECT_EQ(w.restarts, 0);
  }

  rig.server->Pause();
  EXPECT_TRUE(rig.server->Health().paused);
  rig.server->Resume();

  rig.server->Stop();
  health = rig.server->Health();
  EXPECT_FALSE(health.running);
  EXPECT_FALSE(health.accepting);
  for (const ServerHealth::Worker& w : health.workers)
    EXPECT_FALSE(w.alive);  // every loop exited through the drain
}

}  // namespace
}  // namespace groupsa::serve
