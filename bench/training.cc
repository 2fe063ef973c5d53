// Training hot-loop benchmark: the full two-stage Fit() schedule with the
// tensor pool on vs off, at one and four threads. Pooled and unpooled
// training are bit-identical by contract (see src/core/trainer.h); this
// driver re-verifies that claim on every run by comparing the encoded
// parameter blobs of all four configurations and exits non-zero on any
// mismatch, so the timing numbers can never silently drift away from the
// semantics they claim to measure.
//
// Reported per configuration: seconds per epoch (mean over the recorded
// user+group epochs), batches per second, and — for the pooled runs — the
// pool's allocation counters, which show the steady state recycling
// instead of allocating.
//
// Flags: --users=N --items=N --groups=N --epochs=N --quick
//        --json=path   (machine-readable result record, see tools/bench.sh)
//        Every N is a whole number >= 1, and --users and --items >= 3 (the
//        smallest world the generator accepts); anything else exits 2.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autograd/pool.h"
#include "common/stopwatch.h"
#include "core/groupsa_model.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tfidf.h"
#include "nn/checkpoint.h"
#include "pipeline/experiment.h"

using namespace groupsa;
using pipeline::ParseBenchIntFlag;

namespace {

struct Flags {
  int users = 300;
  int items = 200;
  int groups = 120;
  int epochs = 4;  // per stage; enough steady-state to amortize warm-up
  bool quick = false;
  std::string json;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      f.quick = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      f.json = arg + 7;
    } else if (!ParseBenchIntFlag(arg, "--users", 3, INT_MAX, &f.users) &&
               !ParseBenchIntFlag(arg, "--items", 3, INT_MAX, &f.items) &&
               !ParseBenchIntFlag(arg, "--groups", 1, INT_MAX, &f.groups) &&
               !ParseBenchIntFlag(arg, "--epochs", 1, INT_MAX, &f.epochs)) {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  if (f.quick) {
    f.users = std::min(f.users, 80);
    f.items = std::min(f.items, 60);
    f.groups = std::min(f.groups, 40);
    f.epochs = 1;
  }
  return f;
}

// The shared training problem: one synthetic world, one split, one set of
// precomputed model inputs. Every benchmark run re-derives its model and
// trainer from the same seeds so the four configurations are exact
// replicas of each other except for the thread count and the pool toggle.
struct Workload {
  data::SyntheticWorld world;
  data::Split ui;
  data::Split gi;
  data::InteractionMatrix ui_train;
  data::InteractionMatrix gi_train;
  core::ModelData model_data;
};

core::GroupSaConfig BenchConfig(const Flags& flags, int threads) {
  core::GroupSaConfig config = core::GroupSaConfig::Default();
  config.user_epochs = flags.epochs;
  config.group_epochs = flags.epochs;
  config.threads = threads;
  return config;
}

Workload BuildWorkload(const Flags& flags) {
  data::SyntheticWorldConfig wc;
  wc.name = "bench_training";
  wc.num_users = flags.users;
  wc.num_items = flags.items;
  wc.num_groups = flags.groups;
  wc.seed = 7;
  Workload w{data::GenerateWorld(wc), {}, {}, {}, {}, {}};

  Rng split_rng(11);
  w.ui = data::SplitEdges(w.world.dataset.user_item, 0.2, 0.1, &split_rng);
  w.gi = data::GlobalSplitEdges(w.world.dataset.group_item, 0.2, 0.1,
                                &split_rng);
  w.ui_train = data::InteractionMatrix(w.world.dataset.num_users,
                                       w.world.dataset.num_items, w.ui.train);
  w.gi_train =
      data::InteractionMatrix(w.world.dataset.groups.num_groups(),
                              w.world.dataset.num_items, w.gi.train);

  const core::GroupSaConfig config = BenchConfig(flags, 1);
  w.model_data.groups = &w.world.dataset.groups;
  w.model_data.social = &w.world.dataset.social;
  w.model_data.top_items = data::TopItemsPerUser(w.ui_train, config.top_h);
  w.model_data.top_friends =
      data::TopFriendsPerUser(w.world.dataset.social, config.top_h);
  return w;
}

struct RunResult {
  double total_seconds = 0.0;
  double seconds_per_epoch = 0.0;
  double batches_per_second = 0.0;
  ag::TensorPool::Stats pool;
  std::string params;  // encoded blob, for the bit-identity check
};

RunResult RunTraining(const Workload& w, const Flags& flags, int threads,
                      bool pooling) {
  const core::GroupSaConfig config = BenchConfig(flags, threads);
  Rng rng(13);
  core::GroupSaModel model(config, w.world.dataset.num_users,
                           w.world.dataset.num_items, w.model_data, &rng);
  core::Trainer trainer(&model, w.ui.train, w.gi.train, &w.ui_train,
                        &w.gi_train, &rng);
  trainer.set_tensor_pooling(pooling);

  Stopwatch sw;
  const core::Trainer::FitReport report = trainer.Fit();
  RunResult r;
  r.total_seconds = sw.ElapsedSeconds();

  double epoch_seconds = 0.0;
  int64_t batches = 0;
  int epochs = 0;
  for (const auto* stage : {&report.user_epochs, &report.group_epochs}) {
    for (const core::Trainer::EpochStats& e : *stage) {
      epoch_seconds += e.seconds;
      batches += (e.num_samples + config.batch_size - 1) / config.batch_size;
      ++epochs;
    }
  }
  r.seconds_per_epoch = epochs > 0 ? epoch_seconds / epochs : 0.0;
  r.batches_per_second =
      epoch_seconds > 0.0 ? static_cast<double>(batches) / epoch_seconds : 0.0;
  r.pool = trainer.PoolStats();
  r.params = nn::EncodeParameters(model.Parameters());
  return r;
}

void PrintRun(const char* label, const RunResult& r) {
  std::printf("  %-12s total %7.3fs  %7.3fs/epoch  %8.2f batches/s", label,
              r.total_seconds, r.seconds_per_epoch, r.batches_per_second);
  if (r.pool.batches > 0) {
    std::printf("  pool: %llu created / %llu reused, %llu escaped, %llu B",
                static_cast<unsigned long long>(r.pool.tensors_created),
                static_cast<unsigned long long>(r.pool.tensors_reused),
                static_cast<unsigned long long>(r.pool.escaped),
                static_cast<unsigned long long>(r.pool.bytes));
  }
  std::printf("\n");
}

void WritePoolCounters(FILE* out, const char* width,
                       const ag::TensorPool::Stats& pool) {
  const std::pair<const char*, uint64_t> counters[] = {
      {"tensors_created", pool.tensors_created},
      {"tensors_reused", pool.tensors_reused},
      {"workspaces_created", pool.workspaces_created},
      {"workspaces_reused", pool.workspaces_reused},
      {"escaped", pool.escaped},
      {"bytes", pool.bytes}};
  for (const auto& [name, value] : counters) {
    std::fprintf(out, "  \"%s_pool_%s\": %llu,\n", width, name,
                 static_cast<unsigned long long>(value));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const Workload w = BuildWorkload(flags);

  std::printf(
      "bench_training: %d users, %d items, %d groups, %d+%d epochs, "
      "batch %d\n",
      flags.users, flags.items, flags.groups, flags.epochs, flags.epochs,
      core::GroupSaConfig::Default().batch_size);

  const RunResult t1_unpooled = RunTraining(w, flags, 1, /*pooling=*/false);
  const RunResult t1_pooled = RunTraining(w, flags, 1, /*pooling=*/true);
  const RunResult t4_unpooled = RunTraining(w, flags, 4, /*pooling=*/false);
  const RunResult t4_pooled = RunTraining(w, flags, 4, /*pooling=*/true);

  PrintRun("t1 unpooled", t1_unpooled);
  PrintRun("t1 pooled", t1_pooled);
  PrintRun("t4 unpooled", t4_unpooled);
  PrintRun("t4 pooled", t4_pooled);

  const bool identical = t1_pooled.params == t1_unpooled.params &&
                         t4_unpooled.params == t1_unpooled.params &&
                         t4_pooled.params == t1_unpooled.params;
  const double speedup_t1 =
      t1_unpooled.seconds_per_epoch / t1_pooled.seconds_per_epoch;
  const double speedup_t4 =
      t4_unpooled.seconds_per_epoch / t4_pooled.seconds_per_epoch;
  std::printf("  pooled speedup: %.2fx at 1 thread, %.2fx at 4 threads\n",
              speedup_t1, speedup_t4);
  std::printf("  bit-identical: %s\n", identical ? "yes" : "NO");

  if (!flags.json.empty()) {
    FILE* out = std::fopen(flags.json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
      return 2;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"training\",\n"
        "  \"users\": %d,\n"
        "  \"items\": %d,\n"
        "  \"groups\": %d,\n"
        "  \"epochs_per_stage\": %d,\n"
        "  \"t1_unpooled_seconds_per_epoch\": %.6f,\n"
        "  \"t1_pooled_seconds_per_epoch\": %.6f,\n"
        "  \"t1_unpooled_batches_per_second\": %.3f,\n"
        "  \"t1_pooled_batches_per_second\": %.3f,\n"
        "  \"t4_unpooled_seconds_per_epoch\": %.6f,\n"
        "  \"t4_pooled_seconds_per_epoch\": %.6f,\n"
        "  \"t4_unpooled_batches_per_second\": %.3f,\n"
        "  \"t4_pooled_batches_per_second\": %.3f,\n"
        "  \"pooled_speedup_t1\": %.3f,\n"
        "  \"pooled_speedup_t4\": %.3f,\n",
        flags.users, flags.items, flags.groups, flags.epochs,
        t1_unpooled.seconds_per_epoch, t1_pooled.seconds_per_epoch,
        t1_unpooled.batches_per_second, t1_pooled.batches_per_second,
        t4_unpooled.seconds_per_epoch, t4_pooled.seconds_per_epoch,
        t4_unpooled.batches_per_second, t4_pooled.batches_per_second,
        speedup_t1, speedup_t4);
    // One pool per worker lane, so the t1 and t4 pools differ by design.
    WritePoolCounters(out, "t1", t1_pooled.pool);
    WritePoolCounters(out, "t4", t4_pooled.pool);
    std::fprintf(out, "  \"bit_identical\": %s\n}\n",
                 identical ? "true" : "false");
    std::fclose(out);
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: pooled training diverged from the unpooled path\n");
    return 1;
  }
  return 0;
}
