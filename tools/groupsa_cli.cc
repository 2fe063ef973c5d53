// groupsa_cli — command-line front end to the library.
//
//   groupsa_cli generate --out DIR [--preset yelp|douban|tiny] [--seed N]
//       Generate a synthetic world and write it as TSV files.
//   groupsa_cli stats --data DIR
//       Print Table-I-style statistics of a stored dataset.
//   groupsa_cli train --data DIR --model FILE [--epochs N] [--seed N]
//               [--snapshot FILE] [--snapshot_every N] [--resume]
//       Train GroupSA on a stored dataset and save a checkpoint. Training
//       snapshots (default FILE.snap) are written atomically after every
//       epoch and every --snapshot_every batches; a killed run restarted
//       with --resume continues from the last snapshot and produces a
//       checkpoint byte-identical to an uninterrupted run, at any
//       --threads value.
//   groupsa_cli evaluate --data DIR --model FILE [--candidates N]
//       Evaluate a checkpoint with the paper's ranking protocol.
//   groupsa_cli kernels
//       Print the kernel backends this binary can run on this host, one
//       per line (scalar first, then ascending vector width). CI iterates
//       this list for the cross-backend bit-parity gates.
//
// All commands accept --threads N (at most parallel::kMaxThreads) to size
// the global thread pool (default: GROUPSA_THREADS env or 1). Training and
// evaluation results are bit-identical at any thread count.
//   groupsa_cli recommend --data DIR --model FILE --members 1,2,3 [--top K]
//       Score the catalog for an ad-hoc group and print the Top-K items.
//       The member list and K follow the serving daemon's request rules
//       (distinct, known users; K >= 1); a list that breaks them exits 1.
//       When the checkpoint cannot be loaded the command degrades to the
//       popularity ranking (pass --strict to fail instead).
//
// The train/evaluate/recommend commands re-derive the split and TF-IDF
// neighbourhoods deterministically from --seed, so a saved model and its
// evaluation always agree.
//
// Fault injection: GROUPSA_FAILPOINTS="name=action[@n[+]];..." arms
// failpoints (common/failpoint.h) in any command, e.g.
// GROUPSA_FAILPOINTS="trainer.batch=kill@12" kills training at batch 12 for
// the crash-resume CI gate.

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/inference_engine.h"
#include "core/topk.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "nn/checkpoint.h"
#include "tensor/backend.h"

using namespace groupsa;
using tools::Fail;
using tools::FlagOr;
using tools::Flags;
using tools::IntFlag;
using tools::Workspace;

namespace {

int CmdGenerate(const Flags& flags) {
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) return Fail("generate requires --out DIR");
  const std::string preset = FlagOr(flags, "preset", "yelp");
  data::SyntheticWorldConfig config;
  if (preset == "yelp") {
    config = data::SyntheticWorldConfig::YelpLike();
  } else if (preset == "douban") {
    config = data::SyntheticWorldConfig::DoubanEventLike();
  } else if (preset == "tiny") {
    config = data::SyntheticWorldConfig::Tiny();
  } else {
    return Fail("unknown preset: " + preset);
  }
  if (!IntFlag(flags, "seed", "7", uint64_t{0}, UINT64_MAX, &config.seed))
    return 1;
  const data::SyntheticWorld world = data::GenerateWorld(config);
  if (Status s = data::SaveDataset(world.dataset, out); !s.ok())
    return Fail(s.message());
  std::printf("wrote %s world to %s\n%s\n", config.name.c_str(), out.c_str(),
              world.dataset.ComputeStats().ToString().c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  const std::string dir = FlagOr(flags, "data", "");
  if (dir.empty()) return Fail("stats requires --data DIR");
  data::Dataset dataset;
  if (Status s = data::LoadDataset(dir, &dataset); !s.ok())
    return Fail(s.message());
  std::printf("%s\n", dataset.ComputeStats().ToString().c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  const std::string dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (dir.empty() || model_path.empty())
    return Fail("train requires --data DIR and --model FILE");
  int epochs = 0;
  int snapshot_every = 0;
  if (!IntFlag(flags, "epochs", "8", 0, INT_MAX, &epochs) ||
      !IntFlag(flags, "snapshot_every", "0", 0, INT_MAX, &snapshot_every)) {
    return 1;
  }
  Workspace ws;
  if (!tools::LoadWorkspace(dir, flags, &ws)) return 1;
  ws.config.user_epochs = epochs;
  ws.config.group_epochs = epochs;

  Rng rng(ws.seed + 1);
  core::GroupSaModel model(ws.config, ws.dataset.num_users,
                           ws.dataset.num_items, ws.model_data, &rng);
  std::printf("training GroupSA (%lld parameters, %d+%d epochs)...\n",
              static_cast<long long>(model.NumParameterScalars()), epochs,
              epochs);
  core::Trainer trainer(&model, ws.ui.train, ws.gi.train, &ws.ui_train,
                        &ws.gi_train, &rng);

  core::Trainer::FitOptions options;
  options.verbose = true;
  options.snapshot_path = FlagOr(flags, "snapshot", model_path + ".snap");
  options.snapshot_every = snapshot_every;
  if (flags.count("resume") != 0) {
    if (std::FILE* f = std::fopen(options.snapshot_path.c_str(), "rb")) {
      std::fclose(f);
      if (Status s = trainer.ResumeFrom(options.snapshot_path); !s.ok())
        return Fail(s.message());
      std::printf("resuming from %s\n", options.snapshot_path.c_str());
    } else {
      std::printf("no snapshot at %s, starting fresh\n",
                  options.snapshot_path.c_str());
    }
  }
  core::Trainer::FitReport report;
  if (Status s = trainer.Fit(options, &report); !s.ok())
    return Fail(s.message());
  if (report.skipped_batches > 0 || report.rollbacks > 0) {
    std::printf("divergence guard: skipped %lld batches, %d rollbacks\n",
                static_cast<long long>(report.skipped_batches),
                report.rollbacks);
  }
  if (Status s = nn::SaveParameters(model.Parameters(), model_path); !s.ok())
    return Fail(s.message());
  std::printf("saved checkpoint to %s\n", model_path.c_str());
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  const std::string dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (dir.empty() || model_path.empty())
    return Fail("evaluate requires --data DIR and --model FILE");
  int candidates = 0;
  if (!IntFlag(flags, "candidates", "100", 1, INT_MAX, &candidates)) return 1;
  Workspace ws;
  if (!tools::LoadWorkspace(dir, flags, &ws)) return 1;
  Rng rng(ws.seed + 1);
  core::GroupSaModel model(ws.config, ws.dataset.num_users,
                           ws.dataset.num_items, ws.model_data, &rng);
  if (Status s = nn::LoadParameters(model.Parameters(), model_path); !s.ok())
    return Fail(s.message());

  Rng eval_rng(ws.seed + 2);
  const data::InteractionMatrix ui_all = ws.dataset.UserItemMatrix();
  const data::InteractionMatrix gi_all = ws.dataset.GroupItemMatrix();
  const auto user_cases =
      eval::BuildRankingCases(ws.ui.test, ui_all, candidates, &eval_rng);
  const auto group_cases =
      eval::BuildRankingCases(ws.gi.test, gi_all, candidates, &eval_rng);
  const eval::EvalResult user = eval::EvaluateRanking(
      user_cases,
      [&](int32_t u, const std::vector<data::ItemId>& items) {
        return model.inference().ScoreItemsForUser(u, items);
      },
      {5, 10});
  const eval::EvalResult group = eval::EvaluateRanking(
      group_cases,
      [&](int32_t g, const std::vector<data::ItemId>& items) {
        return model.inference().ScoreItemsForGroup(g, items);
      },
      {5, 10});
  std::printf("user task:  %s\ngroup task: %s\n", user.ToString().c_str(),
              group.ToString().c_str());
  return 0;
}

int CmdRecommend(const Flags& flags) {
  const std::string dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  const std::string members_flag = FlagOr(flags, "members", "");
  if (dir.empty() || model_path.empty() || members_flag.empty())
    return Fail("recommend requires --data DIR --model FILE --members a,b,c");
  int top_k = 0;
  if (!IntFlag(flags, "top", "10", 1, INT_MAX, &top_k)) return 1;
  Workspace ws;
  if (!tools::LoadWorkspace(dir, flags, &ws)) return 1;
  Rng rng(ws.seed + 1);
  core::GroupSaModel model(ws.config, ws.dataset.num_users,
                           ws.dataset.num_items, ws.model_data, &rng);

  std::vector<data::UserId> members;
  if (!tools::ParseIdList(members_flag, &members)) {
    return Fail("--members " + members_flag +
                ": not a comma-separated list of whole-number user ids");
  }
  // The daemon's request rules: an ad-hoc group is a list of distinct,
  // known users.
  if (Status s = model.inference().ValidateRequest(core::QueryKind::kMembers,
                                                   members, top_k);
      !s.ok()) {
    return Fail("--members " + members_flag + ": " + s.message());
  }

  // A bad checkpoint (missing, torn, corrupt) degrades to the popularity
  // ranking instead of refusing to serve, unless --strict asks for a hard
  // failure.
  core::InferenceEngine::Ranking items;
  const Status loaded = nn::LoadParameters(model.Parameters(), model_path);
  if (loaded.ok()) {
    items = model.inference().RecommendForMembers(members, top_k, nullptr);
  } else {
    if (flags.count("strict") != 0) return Fail(loaded.message());
    std::fprintf(stderr,
                 "warning: %s; serving popularity fallback\n"
                 "warning: degraded response (model unavailable)\n",
                 loaded.message().c_str());
    items = core::TopKItems(
        core::ItemCounts(ws.ui.train, ws.dataset.num_items), top_k);
  }
  std::printf("Top-%d for group {%s}%s:\n", top_k, members_flag.c_str(),
              loaded.ok() ? "" : " [popularity fallback]");
  for (const auto& [item, score] : items)
    std::printf("  item #%-5d score %.4f\n", item, score);
  return 0;
}

// `kernels`: the runnable backend names, for scripts (tools/ci.sh) that
// need to enumerate what this host can actually execute.
int CmdKernels() {
  for (const tensor::KernelBackend* backend : tensor::CompiledBackends())
    if (backend->runnable()) std::printf("%s\n", backend->name);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: groupsa_cli <generate|stats|train|evaluate|"
                 "recommend|kernels> [flags]\n");
    return 1;
  }
  const std::string command = argv[1];
  const Flags flags = tools::ParseFlags(argc, argv, 2);
  // Fault injection for crash/IO testing (no-op unless the env var is set).
  failpoint::ArmFromEnv();
  // --threads N sizes the global pool for every command (train, evaluate,
  // recommend); results are bit-identical at any width. 0 keeps the
  // default.
  int threads = 0;
  if (!IntFlag(flags, "threads", "0", 0, parallel::kMaxThreads, &threads))
    return 1;
  if (threads > 0) parallel::SetGlobalThreads(threads);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "recommend") return CmdRecommend(flags);
  if (command == "kernels") return CmdKernels();
  return Fail("unknown command: " + command);
}
