// The repo benchmark driver: runs one named workload through the serving
// daemon (serve::Server) and the trainer (core::Trainer), measures it from
// outside, checks the answers, and prints one JSON result as its last line.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR] [--quick]
//
// Every workload runs the same life cycle, so every end-to-end metric means
// the same thing on every workload:
//
//   setup     world generation -> initial checkpoint -> Server::Start
//             (load + generation build), a batch of repeats
//   train     the default Fit schedule shape through Trainer::Run*Epoch,
//             then a checkpoint save; no server runs beside it
//   serve     Server::Start on the trained checkpoint, a batch of timed
//             quiescent Reloads, a closed-loop warm-up and one whole
//             untimed cycle
//   cycles    kCycles x (open-loop Poisson `low` block, `high` block,
//             closed-loop capacity block with 4 DriveSchedule lanes);
//             each metric is the median over cycles
//   checks    answer digest across a second batch of reloads,
//             conservation, 0-ULP parity against a direct engine (exact
//             modes), recall@10 of the probe set against an exact-mode
//             oracle
//   setup     a second batch of set-ups
//
// The result line carries BENCHMARK.json's end-to-end metrics; the timings,
// which do not repeat closely enough between runs on a shared host to carry
// a bound, go on an `unbounded` line before it.
//
// --seed sets only the request schedule and arrival times; world, model and
// training seeds are fixed per workload. --trace 1 is a separate run: it
// runs the high blocks twice, untraced and traced, and attributes the
// traced ones to layers by replaying their requests unloaded through
// Server::Call, through direct engine calls, decomposed into scan + select,
// and by timing cold builds on a fresh model. End-to-end numbers never come
// from a traced run. Spans and per-layer numbers are written to
// <out>/<workload>.trace.json and <out>/<workload>.layers.json.

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/groupsa_model.h"
#include "core/inference_engine.h"
#include "core/topk.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/tfidf.h"
#include "measure.h"
#include "nn/checkpoint.h"
#include "serve/harness.h"
#include "serve/server.h"

using namespace groupsa;
namespace pb = perfbench;

namespace {

using Request = serve::Request;
using Response = serve::Response;
using Ranking = std::vector<std::pair<data::ItemId, double>>;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  data::SyntheticWorldConfig world;  // world seed included
  core::TopKMode topk = core::TopKMode::kExact;
  core::ScoreMode score = core::ScoreMode::kExact;
  int nlist = 0;  // IVF lists; 0 = the index's own size rule
  // Traffic mix: kUser share, kGroup share, kMembers gets the rest with a
  // list size drawn uniformly from member_sizes.
  double user_share = 0.4;
  double group_share = 0.4;
  std::vector<int> member_sizes = {2, 3, 4, 5};
  // Warm-up touches every user and group once before timing (hot caches);
  // otherwise it is a short sample of the mix.
  bool warm_all_entities = true;
  // Training: the default Fit schedule shape (E x (social, user), then
  // E x (user, group)) over every train_stride-th user-item edge.
  int epochs_per_stage = 2;
  int train_stride = 1;
  // Frozen load, measured once on the seed commit and never recalibrated.
  // The host's speed drifts by a quarter over hours, so the rates are set
  // against the slowest capacity seen: rate_low ~ 0.3x and rate_high ~ 0.5x
  // of it, slo ~ 4x the p50 at the low rate then. A slow spell can halve the
  // capacity for a second, and above 0.5x that fills the queue and sheds.
  // rate_high is capped at 1500/s: while the submitting thread is held up,
  // arrivals pile up and are then sent in one burst, and the 64-deep queue
  // absorbs a hold-up of 43 ms. capacity_qps only sizes the capacity phase.
  double rate_low_qps = 0;
  double rate_high_qps = 0;
  double slo_p99_ms = 0;
  double capacity_qps = 0;
};

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  {
    // Engine work is ~1 ms, so admission, queue handoff and futures are the
    // largest share of latency. IVF and int8 are bypassed.
    Workload w;
    w.name = "hot_exact_2k";
    w.world.name = w.name;
    w.world.num_items = 2000;
    w.world.num_users = 400;
    w.world.num_groups = 100;
    w.rate_low_qps = 500;
    w.rate_high_qps = 900;
    w.slo_p99_ms = 5;
    w.capacity_qps = 2250;
    all.push_back(w);
  }
  {
    // Retrieval (probe, int8 scan, re-rank) dominates each request; the
    // index + quantizer build dominates reload_s. The index is pinned to 256
    // lists: the index's own size rule (1,264 lists at 100k items) takes
    // ~15 s to build, and every run builds it at each set-up and reload. A
    // change to that size rule therefore shows nowhere in this benchmark.
    Workload w;
    w.name = "ivf_int8_100k";
    w.world.name = w.name;
    w.world.num_items = 100000;
    w.world.num_users = 200;
    w.world.num_groups = 100;
    w.topk = core::TopKMode::kIvf;
    w.score = core::ScoreMode::kInt8;
    w.nlist = 256;
    w.rate_low_qps = 1000;
    w.rate_high_qps = 1500;
    w.slo_p99_ms = 1.7;
    w.capacity_qps = 7400;
    all.push_back(w);
  }
  {
    // Almost every user request misses the representation cache and
    // ad-hoc member lists are never cached: rep building, cache growth and
    // the FP32 scan dominate. 60% of requests are users, not half: a user
    // request takes 1.2-1.6 ms here and a member list 2-5 ms, so with half
    // of each the median falls in the gap between them and jumps across it
    // with each block's share of users.
    Workload w;
    w.name = "cold_adhoc_5k";
    w.world.name = w.name;
    w.world.num_items = 5000;
    w.world.num_users = 50000;
    w.world.num_groups = 100;
    w.user_share = 0.6;
    w.group_share = 0.0;
    w.member_sizes = {3, 6, 12};
    w.warm_all_entities = false;
    // A social epoch over 50,000 users takes ~1.5 s, so one epoch per
    // stage keeps the run inside its time.
    w.epochs_per_stage = 1;
    w.train_stride = 144;
    w.rate_low_qps = 260;
    w.rate_high_qps = 350;
    w.slo_p99_ms = 10;
    w.capacity_qps = 880;
    all.push_back(w);
  }
  {
    // The trainer, autograd and the tensor kernels serving also uses, under
    // the default Fit schedule; the trained model is then served exactly.
    Workload w;
    w.name = "train_yelp";
    w.world = data::SyntheticWorldConfig::YelpLike();
    w.rate_low_qps = 900;
    w.rate_high_qps = 1500;
    w.slo_p99_ms = 2;
    w.capacity_qps = 5650;
    all.push_back(w);
  }
  return all;
}

// --quick: the same life cycle on small inputs, for the smoke test.
void ShrinkForQuick(Workload* w) {
  w->world.num_items = std::min(w->world.num_items, 1500);
  w->world.num_users = std::min(w->world.num_users, 600);
  w->world.num_groups = std::min(w->world.num_groups, 100);
  w->nlist = w->nlist > 0 ? 32 : 0;
  w->epochs_per_stage = 1;
  w->train_stride = std::max(w->train_stride, 4);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string out = ".";
};

// ---------------------------------------------------------------------------
// World, model and requests
// ---------------------------------------------------------------------------

struct World {
  data::SyntheticWorld synthetic;
  data::InteractionMatrix ui;
  data::InteractionMatrix gi;
  core::ModelData model_data;
  data::EdgeList train_edges;

  const data::Dataset& dataset() const { return synthetic.dataset; }
  int num_users() const { return synthetic.dataset.num_users; }
  int num_items() const { return synthetic.dataset.num_items; }
  int num_groups() const { return synthetic.dataset.groups.num_groups(); }
};

std::unique_ptr<World> BuildWorld(const Workload& w) {
  auto world = std::make_unique<World>();
  world->synthetic = data::GenerateWorld(w.world);
  const data::Dataset& d = world->synthetic.dataset;
  world->ui = d.UserItemMatrix();
  world->gi = d.GroupItemMatrix();
  const int top_h = core::GroupSaConfig::Default().top_h;
  world->model_data.groups = &d.groups;
  world->model_data.social = &d.social;
  world->model_data.top_items = data::TopItemsPerUser(world->ui, top_h);
  world->model_data.top_friends = data::TopFriendsPerUser(d.social, top_h);
  for (size_t i = 0; i < d.user_item.size();
       i += static_cast<size_t>(w.train_stride)) {
    world->train_edges.push_back(d.user_item[i]);
  }
  return world;
}

std::unique_ptr<core::GroupSaModel> NewModel(const World& world,
                                             uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<core::GroupSaModel>(
      core::GroupSaConfig::Default(), world.num_users(), world.num_items(),
      world.model_data, &rng);
}

// Puts an engine in the workload's retrieval mode and pays the eager builds
// there, the way the daemon builds a generation.
void ConfigureEngine(const Workload& w, core::InferenceEngine* engine) {
  if (w.topk == core::TopKMode::kIvf) {
    core::ItemIndexConfig index;
    index.nlist = w.nlist;
    engine->set_index_config(index);
    engine->set_topk_mode(core::TopKMode::kIvf);
    engine->GetOrBuildIndex();
  }
  if (w.score == core::ScoreMode::kInt8) {
    engine->set_score_mode(core::ScoreMode::kInt8);
    engine->GetQuantState();
  }
}

bool Exact(const Workload& w) {
  return w.topk == core::TopKMode::kExact && w.score == core::ScoreMode::kExact;
}

// n requests of the workload's mix. serve::BuildSchedule draws each
// request's kind, entity and exclude_seen; every request then asks for the
// top 10, and a member list is redrawn at a size taken from the workload's
// list sizes, which BuildSchedule's 1..max_members cannot express.
std::vector<Request> DrawRequests(const Workload& w, const World& world,
                                  uint64_t seed, int n) {
  serve::ScheduleConfig config;
  config.num_requests = n;
  config.seed = seed;
  config.num_users = world.num_users();
  config.num_groups = world.num_groups();
  config.group_fraction = w.group_share;
  config.members_fraction = 1.0 - w.user_share - w.group_share;
  std::vector<Request> out = serve::BuildSchedule(config);
  Rng rng(Rng::StreamSeed(seed, 1));
  const int sizes = static_cast<int>(w.member_sizes.size());
  for (Request& r : out) {
    r.k = 10;
    if (r.kind != Request::Kind::kMembers) continue;
    const int size = w.member_sizes[static_cast<size_t>(rng.NextInt(sizes))];
    r.members.clear();
    for (int u : rng.SampleWithoutReplacement(world.num_users(), size))
      r.members.push_back(u);
  }
  return out;
}

std::vector<Request> WarmupRequests(const Workload& w, const World& world,
                                    uint64_t seed) {
  std::vector<Request> out = DrawRequests(w, world, seed, 200);
  if (!w.warm_all_entities) {
    std::vector<Request> more = DrawRequests(w, world, seed + 1, 300);
    out.insert(out.end(), more.begin(), more.end());
    return out;
  }
  for (int u = 0; u < world.num_users(); ++u) {
    Request r;
    r.kind = Request::Kind::kUser;
    r.user = u;
    out.push_back(r);
  }
  for (int g = 0; g < world.num_groups(); ++g) {
    Request r;
    r.kind = Request::Kind::kGroup;
    r.group = g;
    out.push_back(r);
  }
  return out;
}

// A fixed probe set, independent of --seed: 60 requests, a third of each
// kind on average whatever the workload's mix, with its member list sizes.
// Its answers are the workload's digest, its recall is recall_at_10.
std::vector<Request> ProbeRequests(Workload w, const World& world) {
  w.user_share = w.group_share = 1.0 / 3.0;
  return DrawRequests(w, world, 0x5EED0F9B0BE5ULL, 60);
}

const char* KindName(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kUser:
      return "user";
    case Request::Kind::kGroup:
      return "group";
    case Request::Kind::kMembers:
      return "members";
  }
  return "?";
}

// Cache key of a user or group request.
int64_t EntityKey(const Request& r) {
  return r.kind == Request::Kind::kUser ? r.user : -1 - int64_t{r.group};
}

Ranking DirectAnswer(core::InferenceEngine& engine, const World& world,
                     const Request& r) {
  const data::InteractionMatrix* user_ex = r.exclude_seen ? &world.ui : nullptr;
  const data::InteractionMatrix* group_ex =
      r.exclude_seen ? &world.gi : nullptr;
  switch (r.kind) {
    case Request::Kind::kUser:
      return engine.RecommendForUser(r.user, r.k, user_ex);
    case Request::Kind::kGroup:
      return engine.RecommendForGroup(r.group, r.k, group_ex);
    case Request::Kind::kMembers:
      return engine.RecommendForMembers(r.members, r.k, user_ex);
  }
  return {};
}

bool Failed(const Response& r) {
  return r.shed || r.rejected || r.expired || r.degraded;
}

bool SameBits(const Ranking& a, const Ranking& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  }
  return true;
}

double Overlap(const Ranking& exact, const Ranking& got) {
  if (exact.empty()) return 1.0;
  int hits = 0;
  for (const auto& [item, score] : got) {
    for (const auto& [want, want_score] : exact) {
      if (item == want) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

// FNV-1a, continuing from `h`.
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  return h;
}

// Digest of the answers (ids, exact score bits, failed flag); the
// generation number is left out so a reload of the same checkpoint must
// reproduce it.
uint64_t Digest(const std::vector<Response>& responses) {
  uint64_t h = kFnvBasis;
  for (const Response& r : responses) {
    const uint8_t failed = Failed(r) ? 1 : 0;
    h = Fnv1a(h, &failed, 1);
    for (const auto& [item, score] : r.items) {
      h = Fnv1a(h, &item, sizeof(item));
      h = Fnv1a(h, &score, sizeof(score));
    }
  }
  return h;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(pb::NowNs() - start_ns) / 1e9;
}

double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  // "lower" or "higher"; only for unbounded metrics
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& better = "") {
    list_.push_back({name, value, unit, better});
  }
  const std::vector<Metric>& list() const { return list_; }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < list_.size(); ++i) {
      const Metric& m = list_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"%s%s%s}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str(),
                    m.better.empty() ? "" : ", \"better\": \"",
                    m.better.c_str(), m.better.empty() ? "" : "\"");
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> list_;
};

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

// Every model of a run derives its initialization seed from this one.
constexpr uint64_t kModelSeed = 13;
constexpr int kPollUs = 100;
// Direct exact-mode replays per request on a 100k catalog cost tens of ms,
// so the non-exact workloads replay only this many requests exactly.
constexpr size_t kExactReplayCap = 60;
// The timed phases: one warm-up cycle whose numbers are dropped, then
// kCycles counted cycles. Each cycle takes 1 / (kCycles + 1) of --seconds,
// split by these shares into its low, high and capacity blocks; at 10 s
// every phase of every workload holds at least 1,000 requests.
constexpr int kCycles = 8;
constexpr double kShareLow = 0.45;
constexpr double kShareHigh = 0.35;
constexpr double kShareCapacity = 0.2;
// The most set-ups in one batch, and the most reloads.
constexpr int kMaxReps = 25;

struct Phase {
  std::vector<Request> requests;
  std::vector<Response> responses;
  pb::OpenLoopTiming timing;

  std::vector<double> Latencies() const {
    std::vector<double> out(requests.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] = timing.LatencyMs(i);
    return out;
  }

  void Append(Phase part) {
    const auto concat = [](auto* into, auto& from) {
      into->insert(into->end(), std::make_move_iterator(from.begin()),
                   std::make_move_iterator(from.end()));
    };
    concat(&requests, part.requests);
    concat(&responses, part.responses);
    concat(&timing.scheduled_ns, part.timing.scheduled_ns);
    concat(&timing.submit_start_ns, part.timing.submit_start_ns);
    concat(&timing.submit_end_ns, part.timing.submit_end_ns);
    concat(&timing.completed_ns, part.timing.completed_ns);
    concat(&timing.sweep_gap_ms, part.timing.sweep_gap_ms);
  }
};

struct Cycle {
  Phase low;
  Phase high;
  double capacity_qps = 0;
};

struct TrainOutcome {
  int64_t samples = 0;
  std::map<std::string, std::vector<double>> epoch_s;  // by epoch kind
  int64_t batches = 0;  // every epoch run, rounds included
  int64_t skipped = 0;
  ag::TensorPool::Stats pool;
  uint64_t param_digest = 0;

  // The schedule's samples over its time, with every epoch charged the
  // median time of its kind, so an epoch slowed by the host does not move
  // it.
  double SamplesPerSecond() const {
    double seconds = 0;
    for (const auto& [kind, times] : epoch_s)
      seconds += static_cast<double>(times.size()) * pb::Median(times);
    return static_cast<double>(samples) / seconds;
  }
};

enum class Epoch { kSocial, kUser, kGroup };

class Run {
 public:
  Run(Workload w, Options opt)
      : w_(std::move(w)),
        opt_(std::move(opt)),
        spans_(opt_.trace),
        origin_ns_(pb::NowNs()) {
    work_dir_ = opt_.out + "/" + w_.name;
    ::mkdir(opt_.out.c_str(), 0755);
    ::mkdir(work_dir_.c_str(), 0755);
    init_path_ = work_dir_ + "/initial.ckpt";
    trained_path_ = work_dir_ + "/trained.ckpt";
  }

  int Execute();

 private:
  // Life-cycle steps.
  std::unique_ptr<serve::Server> NewServer(const std::string& checkpoint);
  // Calls `call` min_reps times, then again while all calls so far took
  // less than budget_s, at most kMaxReps times in all (once with --quick).
  void Repeat(int min_reps, double budget_s,
              const std::function<void()>& call);
  void RunEpoch(core::Trainer* trainer, Epoch epoch, int parent);
  // A batch of set-ups and a batch of reloads each run at the start of a
  // run (at least twice) and at its end (at least once): setup_s and
  // reload_s are the medians over both batches, so a slow spell of the host
  // at one end of the run moves at most part of them.
  void Setup(int min_reps);
  void Train();
  double TimedReload();
  void TimedReloads(int min_reps);
  void Warmup();
  Phase OpenLoop(std::vector<Request> requests, double rate_qps,
                 uint64_t arrival_seed);
  Cycle RunCycle(int index);
  std::vector<Response> CallAll(const std::vector<Request>& requests);
  void CheckConservation();
  void RunEndToEnd();
  void RunTraced();

  std::unique_ptr<core::GroupSaModel> LoadModel(uint64_t seed);
  void Fail(const std::string& what) {
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  // Requests in one cycle's block that takes `share` of the cycle.
  int BlockCount(double rate, double share) const {
    return std::max(1, static_cast<int>(std::lround(
                           rate * share * opt_.seconds / (kCycles + 1))));
  }
  void CountFailures(const std::vector<Response>& responses) {
    requests_sent_ += static_cast<int64_t>(responses.size());
    for (const Response& r : responses) failed_requests_ += Failed(r);
  }
  void WriteTrace() const;

  Workload w_;
  Options opt_;
  pb::SpanRecorder spans_;
  int64_t origin_ns_;
  std::string work_dir_, init_path_, trained_path_;

  std::unique_ptr<World> world_;
  std::unique_ptr<serve::Server> server_;
  std::vector<Request> warmup_;
  std::vector<Request> probe_;

  std::vector<double> setup_s_, world_gen_s_, save_s_, reload_s_;
  TrainOutcome train_;
  int64_t requests_sent_ = 0;
  int64_t failed_requests_ = 0;
  std::vector<std::string> failures_;
  std::vector<int64_t> repeat_keys_;  // EntityKey of timed requests, in order
  Metrics metrics_;    // BENCHMARK.json's end-to-end or per-layer metrics
  Metrics unbounded_;  // end-to-end timings printed without a bound
};

serve::ServeConfig ServeConfigFor(const Workload& w) {
  serve::ServeConfig sc;
  sc.workers = 2;
  sc.queue_depth = 64;
  sc.topk = w.topk;
  sc.index.nlist = w.nlist;
  sc.score = w.score;
  return sc;
}

std::unique_ptr<serve::Server> Run::NewServer(const std::string& checkpoint) {
  const World* world = world_.get();
  const uint64_t seed = kModelSeed + 1;
  serve::Server::ModelFactory factory =
      [world, seed](const std::string& path,
                    std::unique_ptr<core::GroupSaModel>* out) -> Status {
    std::unique_ptr<core::GroupSaModel> model = NewModel(*world, seed);
    GROUPSA_RETURN_IF_ERROR(nn::LoadParameters(model->Parameters(), path));
    *out = std::move(model);
    return Status::Ok();
  };
  return std::make_unique<serve::Server>(
      ServeConfigFor(w_), std::move(factory), checkpoint,
      world_->dataset().user_item, world_->num_users(), world_->num_groups(),
      world_->num_items(), &world_->ui, &world_->gi);
}

void Run::Setup(int min_reps) {
  // Full set-ups from nothing to a started server. Each server is torn down
  // again, so no idle daemon runs beside what follows; the last world is
  // kept.
  Repeat(min_reps, 0.5, [&] {
    world_.reset();
    const int64_t t0 = pb::NowNs();
    const int root = spans_.Open("setup", -1, -1, t0);
    world_ = BuildWorld(w_);
    const int64_t t1 = pb::NowNs();
    spans_.Add("data.world_gen", -1, root, t0, t1);
    {
      std::unique_ptr<core::GroupSaModel> model =
          NewModel(*world_, kModelSeed);
      if (Status s = nn::SaveParameters(model->Parameters(), init_path_);
          !s.ok())
        Fail("save initial checkpoint: " + s.message());
    }
    const int64_t t2 = pb::NowNs();
    spans_.Add("nn.checkpoint.save", -1, root, t1, t2);
    std::unique_ptr<serve::Server> server = NewServer(init_path_);
    if (Status s = server->Start(); !s.ok()) Fail("start: " + s.message());
    const int64_t t3 = pb::NowNs();
    spans_.Add("serve.start", -1, root, t2, t3);
    spans_.Close(root, t3);
    world_gen_s_.push_back(MsBetween(t0, t1) / 1e3);
    save_s_.push_back(MsBetween(t1, t2) / 1e3);
    setup_s_.push_back(MsBetween(t0, t3) / 1e3);
  });
}

void Run::Repeat(int min_reps, double budget_s,
                 const std::function<void()>& call) {
  const int64_t begin = pb::NowNs();
  for (int rep = 0; rep < (opt_.quick ? 1 : kMaxReps); ++rep) {
    if (rep >= min_reps && SecondsSince(begin) > budget_s) break;
    call();
  }
}

void Run::RunEpoch(core::Trainer* trainer, Epoch epoch, int parent) {
  const int64_t t0 = pb::NowNs();
  core::Trainer::EpochStats stats;
  std::string name;
  switch (epoch) {
    case Epoch::kSocial:
      stats = trainer->RunSocialEpoch();
      name = "social";
      break;
    case Epoch::kUser:
      stats = trainer->RunUserEpoch();
      name = "user";
      break;
    case Epoch::kGroup:
      stats = trainer->RunGroupEpoch();
      name = "group";
      break;
  }
  const int64_t t1 = pb::NowNs();
  spans_.Add("core.trainer." + name + "_epoch", -1, parent, t0, t1);
  const int batch = core::GroupSaConfig::Default().batch_size;
  train_.epoch_s[name].push_back(MsBetween(t0, t1) / 1e3);
  train_.samples += stats.num_samples;
  train_.batches += (stats.num_samples + batch - 1) / batch;
  train_.skipped += stats.skipped_batches;
}

void Run::Train() {
  std::unique_ptr<core::GroupSaModel> model =
      NewModel(*world_, kModelSeed);
  Rng rng(kModelSeed + 2);
  core::Trainer trainer(model.get(), world_->train_edges,
                        world_->dataset().group_item, &world_->ui,
                        &world_->gi, &rng);
  // The default Fit schedule (see Trainer::BuildSchedule) with
  // epochs_per_stage epochs per stage, driven one epoch at a time.
  std::vector<Epoch> schedule;
  for (int e = 0; e < w_.epochs_per_stage; ++e) {
    schedule.push_back(Epoch::kSocial);
    schedule.push_back(Epoch::kUser);
  }
  for (int e = 0; e < w_.epochs_per_stage; ++e) {
    schedule.push_back(Epoch::kUser);
    schedule.push_back(Epoch::kGroup);
  }
  const int root = spans_.Open("train", -1, -1, pb::NowNs());
  for (Epoch epoch : schedule) RunEpoch(&trainer, epoch, root);
  train_.pool = trainer.PoolStats();
  const std::string params = nn::EncodeParameters(model->Parameters());
  train_.param_digest = Fnv1a(kFnvBasis, params.data(), params.size());
  const int64_t t0 = pb::NowNs();
  if (Status s = nn::SaveParameters(model->Parameters(), trained_path_);
      !s.ok())
    Fail("save trained checkpoint: " + s.message());
  spans_.Add("nn.checkpoint.save", -1, root, t0, pb::NowNs());
  spans_.Close(root, pb::NowNs());
}

double Run::TimedReload() {
  const int64_t t0 = pb::NowNs();
  if (Status s = server_->Reload(trained_path_); !s.ok())
    Fail("reload: " + s.message());
  const int64_t t1 = pb::NowNs();
  spans_.Add("serve.reload", -1, -1, t0, t1);
  return MsBetween(t0, t1) / 1e3;
}

// Quiescent reloads of the trained checkpoint.
void Run::TimedReloads(int min_reps) {
  Repeat(min_reps, 0.5, [&] { reload_s_.push_back(TimedReload()); });
}

void Run::Warmup() {
  serve::DriveOptions options;
  options.client_lanes = 2;
  const serve::DriveReport report =
      serve::DriveSchedule(server_.get(), warmup_, options);
  CountFailures(report.responses);
  // Then one whole cycle, untimed: on the 4-vCPU baseline host the first
  // open-loop traffic after a closed loop or a reload runs slow for a while,
  // and at the high rate that can fill the queue.
  RunCycle(0);
}

// Cycle `index`: a low block and a high block of open-loop Poisson
// arrivals, then a closed-loop capacity block of 4 DriveSchedule lanes.
Cycle Run::RunCycle(int index) {
  const uint64_t stream = 10 * static_cast<uint64_t>(index + 1);
  Cycle cycle;
  cycle.low = OpenLoop(
      DrawRequests(w_, *world_, pb::MixSeed(opt_.seed, stream + 1),
                   BlockCount(w_.rate_low_qps, kShareLow)),
      w_.rate_low_qps, pb::MixSeed(opt_.seed, stream + 2));
  cycle.high = OpenLoop(
      DrawRequests(w_, *world_, pb::MixSeed(opt_.seed, stream + 3),
                   BlockCount(w_.rate_high_qps, kShareHigh)),
      w_.rate_high_qps, pb::MixSeed(opt_.seed, stream + 4));
  const std::vector<Request> closed =
      DrawRequests(w_, *world_, pb::MixSeed(opt_.seed, stream + 5),
                   BlockCount(w_.capacity_qps, kShareCapacity));
  serve::DriveOptions lanes;
  lanes.client_lanes = 4;
  const int64_t start = pb::NowNs();
  const serve::DriveReport report =
      serve::DriveSchedule(server_.get(), closed, lanes);
  cycle.capacity_qps =
      static_cast<double>(closed.size()) / SecondsSince(start);
  CountFailures(report.responses);
  return cycle;
}

Phase Run::OpenLoop(std::vector<Request> requests, double rate_qps,
                    uint64_t arrival_seed) {
  Phase phase;
  phase.requests = std::move(requests);
  const std::vector<double> arrivals = pb::PoissonArrivals(
      arrival_seed, rate_qps, static_cast<int>(phase.requests.size()));
  serve::Server* server = server_.get();
  const std::vector<Request>& reqs = phase.requests;
  phase.responses = pb::RunOpenLoop<Response>(
      arrivals, [server, &reqs](size_t i) { return server->Submit(reqs[i]); },
      kPollUs, &phase.timing);
  CountFailures(phase.responses);
  for (const Request& r : phase.requests) {
    if (r.kind != Request::Kind::kMembers) repeat_keys_.push_back(EntityKey(r));
  }
  return phase;
}

std::vector<Response> Run::CallAll(const std::vector<Request>& requests) {
  std::vector<Response> out;
  out.reserve(requests.size());
  for (const Request& r : requests) out.push_back(server_->Call(r));
  CountFailures(out);
  return out;
}

void Run::CheckConservation() {
  server_->Stop();
  const serve::ServerStats st = server_->stats();
  if (st.submitted != requests_sent_)
    Fail("server saw " + std::to_string(st.submitted) + " requests, " +
         std::to_string(requests_sent_) + " were sent");
  if (st.submitted != st.admitted + st.shed + st.rejected + st.expired ||
      st.admitted != st.completed)
    Fail("conservation: submitted " + std::to_string(st.submitted) +
         " admitted " + std::to_string(st.admitted) + " completed " +
         std::to_string(st.completed) + " shed " + std::to_string(st.shed) +
         " rejected " + std::to_string(st.rejected) + " expired " +
         std::to_string(st.expired));
}

std::unique_ptr<core::GroupSaModel> Run::LoadModel(uint64_t seed) {
  std::unique_ptr<core::GroupSaModel> model = NewModel(*world_, seed);
  if (Status s = nn::LoadParameters(model->Parameters(), trained_path_);
      !s.ok())
    Fail("load trained checkpoint: " + s.message());
  return model;
}

// Share of the timed user and group requests whose entity an earlier
// request (warm-up included) already asked for: the cache-reuse property of
// the workload, independent of the code under test.
double RepeatShare(const std::vector<int64_t>& keys,
                   const std::vector<Request>& warmup) {
  std::unordered_set<int64_t> seen;
  for (const Request& r : warmup)
    if (r.kind != Request::Kind::kMembers) seen.insert(EntityKey(r));
  int64_t repeats = 0;
  for (int64_t k : keys) repeats += !seen.insert(k).second;
  return keys.empty() ? 0.0
                      : static_cast<double>(repeats) /
                            static_cast<double>(keys.size());
}

void Run::RunEndToEnd() {
  Warmup();
  std::vector<double> p50_low, p50_high, capacity;
  std::vector<double> all_low, all_high;
  std::vector<std::pair<Request, Response>> parity_sample;
  double max_lag_ms = 0;
  int64_t failed_open = 0;
  // Per high block: its requests the model answered within the SLO (shed,
  // rejected, expired and degraded requests all miss) over its time from
  // the first scheduled send to the last completion.
  std::vector<double> goodput;
  for (int c = 1; c <= kCycles; ++c) {
    const Cycle cycle = RunCycle(c);
    const Phase& low = cycle.low;
    const Phase& high = cycle.high;
    capacity.push_back(cycle.capacity_qps);

    const std::vector<double> low_lat = low.Latencies();
    const std::vector<double> high_lat = high.Latencies();
    p50_low.push_back(pb::Median(low_lat));
    p50_high.push_back(pb::Median(high_lat));
    int64_t good = 0;
    for (size_t i = 0; i < high_lat.size(); ++i)
      good += !Failed(high.responses[i]) && high_lat[i] <= w_.slo_p99_ms;
    const int64_t last_ns = *std::max_element(
        high.timing.completed_ns.begin(), high.timing.completed_ns.end());
    goodput.push_back(static_cast<double>(good) * 1e3 /
                      MsBetween(high.timing.scheduled_ns.front(), last_ns));
    for (const Phase* phase : {&low, &high}) {
      for (size_t i = 0; i < phase->requests.size(); ++i) {
        max_lag_ms = std::max(max_lag_ms, phase->timing.SendLagMs(i));
        failed_open += Failed(phase->responses[i]);
      }
    }
    all_low.insert(all_low.end(), low_lat.begin(), low_lat.end());
    all_high.insert(all_high.end(), high_lat.begin(), high_lat.end());
    for (size_t i = 0; i < low.requests.size(); i += 10)
      parity_sample.emplace_back(low.requests[i], low.responses[i]);
  }

  // Answers must survive the end batch of reloads bit for bit.
  const std::vector<Response> before = CallAll(probe_);
  TimedReloads(1);
  const std::vector<Response> after = CallAll(probe_);
  const uint64_t digest = Digest(after);
  if (Digest(before) != digest) Fail("answer digest changed across reload");
  CheckConservation();

  // Direct oracle in exact mode: 0-ULP parity for exact workloads, and the
  // reference every workload's recall is scored against.
  std::unique_ptr<core::GroupSaModel> oracle = LoadModel(kModelSeed + 3);
  core::InferenceEngine& engine = oracle->inference();
  double recall = 0;
  int parity_checked = 0;
  for (size_t i = 0; i < probe_.size(); ++i) {
    const Ranking want = DirectAnswer(engine, *world_, probe_[i]);
    recall += Overlap(want, after[i].items);
    if (Exact(w_)) {
      ++parity_checked;
      if (Failed(after[i]) || !SameBits(after[i].items, want))
        Fail(std::string("parity: probe ") + std::to_string(i) + " (" +
             KindName(probe_[i].kind) + ")");
    }
  }
  recall /= static_cast<double>(probe_.size());
  if (Exact(w_)) {
    // Every 10th answer of the low blocks.
    for (const auto& [request, response] : parity_sample) {
      if (Failed(response)) continue;
      ++parity_checked;
      if (!SameBits(response.items, DirectAnswer(engine, *world_, request)))
        Fail("parity: a low-phase answer differs from the engine's");
    }
  }

  // The end batch of set-ups, once the memory peak is read and the server
  // is gone.
  const double peak_rss_mb = PeakRssMb();
  oracle.reset();
  server_.reset();
  Setup(1);

  // Printed, not bounded: the slow spells of a shared host set the p99s (see
  // README.md).
  const pb::Quantile p99_low = pb::NearestRank(all_low, 0.99);
  const pb::Quantile p99_high = pb::NearestRank(all_high, 0.99);
  std::printf("phases: 1 + %d cycles of low %d req @ %.0f/s, high %d req @ "
              "%.0f/s, capacity %d req x 4 lanes; parity-checked %d "
              "answers\n",
              kCycles, BlockCount(w_.rate_low_qps, kShareLow),
              w_.rate_low_qps, BlockCount(w_.rate_high_qps, kShareHigh),
              w_.rate_high_qps, BlockCount(w_.capacity_qps, kShareCapacity),
              parity_checked);
  std::printf("tails: p99 low %.4f ms (%lld beyond); p99 high %.4f ms (%lld "
              "beyond); send lag max %.3f ms; %lld open-loop requests "
              "failed\n",
              p99_low.value, static_cast<long long>(p99_low.beyond),
              p99_high.value, static_cast<long long>(p99_high.beyond),
              max_lag_ms, static_cast<long long>(failed_open));
  // The samples behind each median, to tell a slow spell from a shift.
  const auto print_samples = [](const std::string& name,
                                const std::vector<double>& values) {
    std::printf("samples %s", name.c_str());
    for (double v : values) std::printf(" %.6g", v);
    std::printf("\n");
  };
  print_samples("setup_s", setup_s_);
  print_samples("reload_s", reload_s_);
  print_samples("p50_ms_low", p50_low);
  print_samples("p50_ms_high", p50_high);
  print_samples("goodput_qps_high", goodput);
  print_samples("capacity_qps", capacity);
  for (const auto& [kind, values] : train_.epoch_s)
    print_samples(kind + "_epoch_s", values);
  std::printf("digests {\"answers\": \"%016llx\", \"params\": \"%016llx\"}\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(train_.param_digest));

  metrics_.Set("setup_s", pb::Median(setup_s_), "s");
  metrics_.Set("peak_rss_mb", peak_rss_mb, "MB");
  metrics_.Set("recall_at_10", recall, "ratio");
  // Timings that do not repeat within a tenth between runs on a shared host
  // (README.md): printed for paired comparisons, without a bound.
  unbounded_.Set("reload_s", pb::Median(reload_s_), "s", "lower");
  unbounded_.Set("p50_ms_low", pb::Median(p50_low), "ms", "lower");
  unbounded_.Set("p50_ms_high", pb::Median(p50_high), "ms", "lower");
  unbounded_.Set("goodput_qps_high", pb::Median(goodput), "1/s", "higher");
  unbounded_.Set("capacity_qps", pb::Median(capacity), "1/s", "higher");
  unbounded_.Set("train_samples_per_s", train_.SamplesPerSecond(), "1/s",
                 "higher");
  std::printf("unbounded %s\n", unbounded_.Json().c_str());
}

// Wall time in ms of one direct engine call for request `id`, recorded as a
// span named prefix + "." + kind.
double TimeDirect(core::InferenceEngine& engine, const World& world,
                  const Request& request, size_t id, const std::string& prefix,
                  pb::SpanRecorder* spans, Ranking* answer) {
  const int64_t t0 = pb::NowNs();
  Ranking got = DirectAnswer(engine, world, request);
  const int64_t t1 = pb::NowNs();
  spans->Add(prefix + "." + KindName(request.kind), static_cast<int64_t>(id),
             -1, t0, t1);
  if (answer != nullptr) *answer = std::move(got);
  return MsBetween(t0, t1);
}

void Run::RunTraced() {
  Warmup();
  // The high phase in the same kCycles blocks as an untraced run, each
  // block run twice, untraced and traced in alternating order, with
  // different requests from the same mix so the traced one does not find
  // the untraced one's cache entries. The p50 gap of the two is the
  // tracing overhead.
  const int n_block = BlockCount(w_.rate_high_qps, kShareHigh);
  Phase plain, high;
  for (int c = 1; c <= kCycles; ++c) {
    const uint64_t stream = 10 * static_cast<uint64_t>(c + 1);
    for (int traced = 0; traced < 2; ++traced) {
      // Alternate which of the pair runs first.
      const bool into_high = (traced == 1) != (c % 2 == 1);
      const uint64_t sub = stream + (into_high ? 6 : 3);
      (into_high ? high : plain)
          .Append(OpenLoop(
              DrawRequests(w_, *world_, pb::MixSeed(opt_.seed, sub), n_block),
              w_.rate_high_qps, pb::MixSeed(opt_.seed, sub + 1)));
    }
  }
  const int64_t peak_queue = server_->stats().peak_queue_depth;
  const size_t n = high.requests.size();
  for (size_t i = 0; i < n; ++i) {
    const int root = spans_.Add("serve.request", static_cast<int64_t>(i), -1,
                                high.timing.scheduled_ns[i],
                                high.timing.completed_ns[i]);
    spans_.Add("serve.submit", static_cast<int64_t>(i), root,
               high.timing.submit_start_ns[i], high.timing.submit_end_ns[i]);
  }
  const std::vector<Response> before = CallAll(probe_);

  // The same requests, unloaded, through Server::Call on a fresh generation
  // warmed the same way.
  reload_s_.push_back(TimedReload());
  if (Digest(before) != Digest(CallAll(probe_)))
    Fail("answer digest changed across reload");
  Warmup();
  std::vector<double> call_ms(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t t0 = pb::NowNs();
    const Response r = server_->Call(high.requests[i]);
    const int64_t t1 = pb::NowNs();
    spans_.Add("serve.call", static_cast<int64_t>(i), -1, t0, t1);
    call_ms[i] = MsBetween(t0, t1);
    ++requests_sent_;
    failed_requests_ += Failed(r);
  }
  CheckConservation();
  const int64_t failed_requests = failed_requests_;

  // Direct engine calls for the same requests on models loaded from the
  // same checkpoint: `direct` in the serving mode, and the exact engine
  // decomposed into its public scan (ScoreItemsFor* over the catalog) and
  // select (TopKItems) calls on `parts`. The exact call and its
  // decomposition run back to back per request, on models that saw the
  // same requests in the same order, so host drift cannot open a gap
  // between them. Non-exact workloads replay a capped, unwarmed prefix
  // exactly, on a third model.
  std::unique_ptr<core::GroupSaModel> direct = LoadModel(kModelSeed + 3);
  core::InferenceEngine& engine = direct->inference();
  ConfigureEngine(w_, &engine);
  std::unique_ptr<core::GroupSaModel> parts = LoadModel(kModelSeed + 4);
  core::InferenceEngine& decomposed = parts->inference();
  for (const Request& r : warmup_) {
    DirectAnswer(engine, *world_, r);
    if (Exact(w_)) DirectAnswer(decomposed, *world_, r);
  }
  const std::vector<data::ItemId> catalog =
      core::AllItems(world_->num_items());
  std::vector<double> scan_ms, select_ms;
  // Times scan + select for request i on `parts`; returns their answer.
  const auto decompose = [&](size_t i) {
    const Request& r = high.requests[i];
    const data::InteractionMatrix* ex =
        !r.exclude_seen ? nullptr
                        : (r.kind == Request::Kind::kGroup ? &world_->gi
                                                           : &world_->ui);
    const std::function<bool(data::ItemId)> skip = [&](data::ItemId item) {
      if (ex == nullptr) return false;
      switch (r.kind) {
        case Request::Kind::kUser:
          return ex->Has(r.user, item);
        case Request::Kind::kGroup:
          return ex->Has(r.group, item);
        case Request::Kind::kMembers:
          for (data::UserId m : r.members)
            if (ex->Has(m, item)) return true;
          return false;
      }
      return false;
    };
    const int64_t t0 = pb::NowNs();
    const int parent = spans_.Open("core.engine.decomposed",
                                   static_cast<int64_t>(i), -1, t0);
    std::vector<double> scores;
    switch (r.kind) {
      case Request::Kind::kUser:
        scores = decomposed.ScoreItemsForUser(r.user, catalog);
        break;
      case Request::Kind::kGroup:
        scores = decomposed.ScoreItemsForGroup(r.group, catalog);
        break;
      case Request::Kind::kMembers:
        scores = decomposed.ScoreItemsForMembers(r.members, catalog);
        break;
    }
    const int64_t t1 = pb::NowNs();
    Ranking top = core::TopKItems(scores, r.k, skip);
    const int64_t t2 = pb::NowNs();
    spans_.Add("core.engine.scan", static_cast<int64_t>(i), parent, t0, t1);
    spans_.Add("core.topk.select", static_cast<int64_t>(i), parent, t1, t2);
    spans_.Close(parent, t2);
    scan_ms.push_back(MsBetween(t0, t1));
    select_ms.push_back(MsBetween(t1, t2));
    return top;
  };

  std::vector<double> engine_ms(n), exact_ms;
  std::map<std::string, std::vector<double>> by_kind;
  for (size_t i = 0; i < n; ++i) {
    Ranking answer;
    engine_ms[i] = TimeDirect(engine, *world_, high.requests[i], i,
                              "core.engine", &spans_, &answer);
    by_kind[KindName(high.requests[i].kind)].push_back(engine_ms[i]);
    if (Exact(w_)) {
      exact_ms.push_back(engine_ms[i]);
      if (!SameBits(decompose(i), answer))
        Fail("decomposed scan + select differs from the engine, request " +
             std::to_string(i));
    }
  }
  for (const char* kind : {"user", "group", "members"}) {
    if (!by_kind[kind].empty()) continue;
    // The mix has no requests of this kind: time the probe set's instead.
    for (size_t i = 0; i < probe_.size(); ++i) {
      if (std::strcmp(KindName(probe_[i].kind), kind) == 0)
        by_kind[kind].push_back(TimeDirect(engine, *world_, probe_[i], i,
                                           "core.engine", &spans_, nullptr));
    }
  }
  const double cached_entities = static_cast<double>(
      engine.cached_users() + engine.cached_groups() +
      engine.cached_quant_users() + engine.cached_quant_groups());
  const double user_cache_bytes = static_cast<double>(
      w_.score == core::ScoreMode::kInt8 ? engine.QuantUserCacheBytes()
                                         : engine.Fp32UserCacheBytes());
  direct.reset();
  if (!Exact(w_)) {
    std::unique_ptr<core::GroupSaModel> exact = LoadModel(kModelSeed + 5);
    for (size_t i = 0; i < std::min(n, kExactReplayCap); ++i) {
      exact_ms.push_back(TimeDirect(exact->inference(), *world_,
                                    high.requests[i], i, "core.engine.exact",
                                    &spans_, nullptr));
      decompose(i);
    }
  }
  parts.reset();
  std::vector<double> unattributed_ms(exact_ms.size());
  for (size_t i = 0; i < exact_ms.size(); ++i)
    unattributed_ms[i] = exact_ms[i] - scan_ms[i] - select_ms[i];

  // Cold builds on a fresh model.
  std::unique_ptr<core::GroupSaModel> cold = NewModel(*world_, kModelSeed + 6);
  std::vector<double> load_s;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = pb::NowNs();
    if (Status s = nn::LoadParameters(cold->Parameters(), trained_path_);
        !s.ok())
      Fail("load: " + s.message());
    spans_.Add("nn.checkpoint.load", -1, -1, t0, pb::NowNs());
    load_s.push_back(SecondsSince(t0));
  }
  core::InferenceEngine& fresh = cold->inference();
  core::ItemIndexConfig index;
  index.nlist = w_.nlist;
  fresh.set_index_config(index);
  int64_t t0 = pb::NowNs();
  fresh.GetOrBuildIndex();
  const double index_s = SecondsSince(t0);
  spans_.Add("core.index.build", -1, -1, t0, pb::NowNs());
  t0 = pb::NowNs();
  fresh.GetQuantState();
  const double quant_s = SecondsSince(t0);
  spans_.Add("core.quant.build", -1, -1, t0, pb::NowNs());
  std::vector<const std::vector<data::UserId>*> member_lists;
  for (const Request& r : probe_)
    if (r.kind == Request::Kind::kMembers) member_lists.push_back(&r.members);
  // Builds the item-side split weights, so they are not charged to the
  // first representation below.
  fresh.ScoreItemsForMembers(*member_lists.back(), {0});
  std::map<std::string, std::vector<double>> rep_ms;
  const int reps = std::min(40, std::min(world_->num_users(),
                                         world_->num_groups()));
  for (int i = 0; i < reps; ++i) {
    const data::UserId u = static_cast<data::UserId>(
        static_cast<int64_t>(i) * world_->num_users() / reps);
    const data::GroupId g = static_cast<data::GroupId>(
        static_cast<int64_t>(i) * world_->num_groups() / reps);
    const auto first_minus_repeat = [&](const char* kind,
                                        const std::function<void()>& call) {
      const int64_t a = pb::NowNs();
      call();
      const int64_t b = pb::NowNs();
      call();
      const int64_t c = pb::NowNs();
      spans_.Add(std::string("core.engine.rep_build.") + kind, i, -1, a, b);
      rep_ms[kind].push_back(MsBetween(a, b) - MsBetween(b, c));
    };
    first_minus_repeat("user", [&] { fresh.ScoreItemsForUser(u, {0}); });
    first_minus_repeat("group", [&] { fresh.ScoreItemsForGroup(g, {0}); });
    // Member lists have no cache: every call builds, so the build is the
    // whole one-item call.
    const std::vector<data::UserId>& members =
        *member_lists[static_cast<size_t>(i) % member_lists.size()];
    const int64_t a = pb::NowNs();
    fresh.ScoreItemsForMembers(members, {0});
    const int64_t b = pb::NowNs();
    spans_.Add("core.engine.rep_build.members", i, -1, a, b);
    rep_ms["members"].push_back(MsBetween(a, b));
  }
  cold.reset();

  std::vector<double> overhead_ms(n), queue_wait_ms(n), lag_ms(n),
      submit_us(n);
  const std::vector<double> high_lat = high.Latencies();
  for (size_t i = 0; i < n; ++i) {
    overhead_ms[i] = call_ms[i] - engine_ms[i];
    queue_wait_ms[i] = high_lat[i] - call_ms[i];
    lag_ms[i] = high.timing.SendLagMs(i);
    submit_us[i] = high.timing.SubmitUs(i);
  }
  const double plain_p50 = pb::Median(plain.Latencies());
  const double send_lag_p99 = pb::NearestRank(lag_ms, 0.99).value;
  if (send_lag_p99 > 1.0)
    std::printf("warning: generator send lag p99 %.3f ms > 1 ms; this run "
                "is not valid for latency\n",
                send_lag_p99);

  metrics_.Set("serve.submit_us.p50", pb::Median(submit_us), "us");
  metrics_.Set("serve.overhead_ms.p50", pb::Median(overhead_ms), "ms");
  metrics_.Set("serve.queue_wait_ms.p50", pb::Median(queue_wait_ms), "ms");
  metrics_.Set("serve.queue_wait_ms.p99",
               pb::NearestRank(queue_wait_ms, 0.99).value, "ms");
  metrics_.Set("serve.peak_queue_depth", static_cast<double>(peak_queue),
               "count");
  metrics_.Set("serve.failed", static_cast<double>(failed_requests),
               "count");
  metrics_.Set("core.engine.user_ms.p50", pb::Median(by_kind["user"]), "ms");
  metrics_.Set("core.engine.group_ms.p50", pb::Median(by_kind["group"]),
               "ms");
  metrics_.Set("core.engine.members_ms.p50", pb::Median(by_kind["members"]),
               "ms");
  metrics_.Set("core.engine.rep_build_ms.user.p50",
               pb::Median(rep_ms["user"]), "ms");
  metrics_.Set("core.engine.rep_build_ms.group.p50",
               pb::Median(rep_ms["group"]), "ms");
  metrics_.Set("core.engine.rep_build_ms.members.p50",
               pb::Median(rep_ms["members"]), "ms");
  metrics_.Set("core.engine.scan_ms.p50", pb::Median(scan_ms), "ms");
  metrics_.Set("core.topk.select_ms.p50", pb::Median(select_ms), "ms");
  metrics_.Set("core.engine.unattributed_ms.p50", pb::Median(unattributed_ms),
               "ms");
  metrics_.Set("core.engine.exact_ms.p50", pb::Median(exact_ms), "ms");
  metrics_.Set("core.engine.cached_entities", cached_entities, "count");
  metrics_.Set("core.engine.user_cache_bytes", user_cache_bytes, "bytes");
  metrics_.Set("workload.repeat_entity_share",
               RepeatShare(repeat_keys_, warmup_), "ratio");
  metrics_.Set("nn.checkpoint.load_s", pb::Median(load_s), "s");
  metrics_.Set("nn.checkpoint.save_s", pb::Median(save_s_), "s");
  metrics_.Set("core.index.build_s", index_s, "s");
  metrics_.Set("core.quant.build_s", quant_s, "s");
  metrics_.Set("data.world_gen_s", pb::Median(world_gen_s_), "s");
  metrics_.Set("core.trainer.social_epoch_s",
               pb::Median(train_.epoch_s["social"]), "s");
  metrics_.Set("core.trainer.user_epoch_s", pb::Median(train_.epoch_s["user"]),
               "s");
  metrics_.Set("core.trainer.group_epoch_s",
               pb::Median(train_.epoch_s["group"]), "s");
  metrics_.Set("autograd.pool.created",
               static_cast<double>(train_.pool.tensors_created +
                                   train_.pool.workspaces_created),
               "count");
  metrics_.Set("autograd.pool.reused",
               static_cast<double>(train_.pool.tensors_reused +
                                   train_.pool.workspaces_reused),
               "count");
  metrics_.Set("autograd.pool.escaped",
               static_cast<double>(train_.pool.escaped), "count");
  metrics_.Set("core.trainer.skipped_batches",
               static_cast<double>(train_.skipped), "count");
  metrics_.Set("harness.send_lag_ms.p99", send_lag_p99, "ms");
  metrics_.Set("harness.sweep_gap_ms.p99",
               pb::NearestRank(high.timing.sweep_gap_ms, 0.99).value, "ms");
  metrics_.Set("trace.overhead_pct",
               100.0 * (pb::Median(high_lat) - plain_p50) / plain_p50, "%");
  WriteTrace();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void Run::WriteTrace() const {
  const std::vector<pb::Span>& spans = spans_.spans();
  const std::vector<int64_t> self = pb::SelfTimesNs(spans);
  {
    std::ofstream f(opt_.out + "/" + w_.name + ".trace.json");
    f << "{\"workload\": \"" << w_.name << "\", \"seed\": " << opt_.seed
      << ", \"spans\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
      const pb::Span& s = spans[i];
      f << (i ? ",\n" : "") << "{\"name\": \"" << JsonEscape(s.name)
        << "\", \"request_id\": " << s.request_id << ", \"parent\": "
        << s.parent << ", \"start_ns\": " << s.start_ns - origin_ns_
        << ", \"end_ns\": " << s.end_ns - origin_ns_ << "}";
    }
    f << "\n]}\n";
  }
  std::map<std::string, std::vector<double>> self_ms;
  for (size_t i = 0; i < spans.size(); ++i)
    self_ms[spans[i].name].push_back(static_cast<double>(self[i]) / 1e6);
  std::ofstream f(opt_.out + "/" + w_.name + ".layers.json");
  f << "{\"workload\": \"" << w_.name << "\", \"seed\": " << opt_.seed
    << ",\n \"metrics\": " << metrics_.Json() << ",\n \"span_self_ms\": {";
  bool first = true;
  for (const auto& [name, values] : self_ms) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  \"%s\": {\"count\": %zu, \"p50\": %.6f, "
                  "\"p99\": %.6f}",
                  first ? "" : ",", JsonEscape(name).c_str(), values.size(),
                  pb::Median(values), pb::NearestRank(values, 0.99).value);
    f << buf;
    first = false;
  }
  f << "\n}}\n";
}

int Run::Execute() {
  parallel::SetGlobalThreads(1);
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
              opt_.seconds, opt_.trace ? 1 : 0, opt_.quick ? " (quick)" : "");
  Setup(2);
  Train();
  server_ = NewServer(trained_path_);
  if (Status s = server_->Start(); !s.ok()) Fail("start: " + s.message());
  TimedReloads(2);
  // Everything that depends on --seed is allocated from here on, so the
  // heap the models and training lived in is the same for every seed.
  warmup_ = WarmupRequests(w_, *world_, pb::MixSeed(opt_.seed, 0));
  probe_ = ProbeRequests(w_, *world_);
  if (opt_.trace) {
    RunTraced();
  } else {
    RunEndToEnd();
  }
  for (const Metric& m : metrics_.list())
    std::printf("  %-38s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  const bool correct = failures_.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(requests_sent_ + train_.batches),
              static_cast<long long>(failed_requests_ + train_.skipped),
              metrics_.Json().c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt->workload = value();
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt->trace = value() == "1";
    } else if (arg == "--out") {
      opt->out = value();
    } else if (arg == "--quick") {
      opt->quick = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--quick]\n");
    return 2;
  }
#ifdef M_ARENA_MAX
  // One malloc arena for every thread. With glibc's per-thread arenas the
  // peak resident set of cold_adhoc_5k reads one of two values ~18 MB apart
  // from run to run, depending on which thread first allocates what; with
  // one arena it repeats to 0.1 MB.
  mallopt(M_ARENA_MAX, 1);
#endif
  for (Workload w : AllWorkloads()) {
    if (w.name != opt.workload) continue;
    if (opt.quick) ShrinkForQuick(&w);
    Run run(std::move(w), opt);
    return run.Execute();
  }
  std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
  return 2;
}
