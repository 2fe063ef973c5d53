// groupsa_serve — the serving daemon front end.
//
//   groupsa_serve --data DIR --model FILE [--workers N] [--queue N]
//                 [--overload shed|reject] [--threads N] [--seed N]
//                 [--topk exact|ivf] [--nlist N] [--nprobe N]
//                 [--score exact|int8] [--rerank N] [--backend NAME]
//                 [--deadline TICKS] [--retries N] [--reload-retries N]
//                 [--breaker] [--breaker-window N] [--breaker-threshold N]
//                 [--breaker-open TICKS] [--breaker-probes N]
//                 [--no-supervise] [--script FILE] [--strict]
//
// Starts the queue-driven request pipeline (src/serve/server.h) over the
// dataset at DIR and the checkpoint at FILE, then executes commands from
// --script (or stdin), one per line:
//
//   user <id> <k> [x]          recommend for a user ("x" excludes seen items)
//   group <id> <k> [x]         recommend for a known group
//   members <a,b,c> <k> [x]    recommend for an ad-hoc (occasional) group
//   reload [path]              hot-swap to the checkpoint (default: --model)
//   stats                      print the monotone serving counters
//   health                     print the liveness snapshot (queue, breaker,
//                              per-worker state)
//   quit                       stop the daemon and exit
//
// Resilience flags (all measured on the daemon's virtual clock, which
// ticks once per submission and once per completion — never wall time):
// --deadline gives every request a tick budget, --retries retries
// transient worker faults with backoff charged against that budget,
// --breaker arms the model-path circuit breaker (window/threshold/open/
// probes tune it), --reload-retries re-attempts failed hot reloads in the
// background, --no-supervise disables hung-worker detection and restart.
//
// --score int8 serves the int8 candidate scan with exact FP32 re-ranking
// of the top --rerank approximate scores (quantized tables are built
// eagerly at every generation swap, composing with --topk ivf), and
// --backend pins the kernel backend (scalar|avx2|avx512) instead of the
// CPUID pick; the active backend is reported in the stats line.
//
// Responses print in request order with %.17g scores, so two runs of the
// same script byte-compare equal at any --workers / --threads width — the
// serve-mode golden gate in tools/ci.sh does exactly that. A missing or
// corrupt checkpoint degrades the daemon to the popularity fallback
// (--strict turns that into a startup failure); GROUPSA_FAILPOINTS arms
// the serve.* fault-injection sites (e.g. serve.reload.swap=kill for the
// crash-during-reload gate).

#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli_common.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "nn/checkpoint.h"
#include "serve/harness.h"
#include "serve/server.h"
#include "tensor/backend.h"

using namespace groupsa;
using tools::Fail;
using tools::FlagOr;
using tools::Flags;
using tools::IntFlag;

namespace {

// Parses "user|group <id> <k> [x]" or "members <a,b,c> <k> [x]". Every id
// and k must be a whole decimal number (ParseWholeInt); whether the
// request is valid for the model is Server::Submit's call.
bool ParseRequestLine(const std::vector<std::string>& tokens,
                      serve::Request* request) {
  if (tokens.size() < 3) return false;
  bool ids_ok = false;
  if (tokens[0] == "user") {
    request->kind = serve::Request::Kind::kUser;
    ids_ok = ParseWholeInt(tokens[1], INT_MIN, INT_MAX, &request->user);
  } else if (tokens[0] == "group") {
    request->kind = serve::Request::Kind::kGroup;
    ids_ok = ParseWholeInt(tokens[1], INT_MIN, INT_MAX, &request->group);
  } else if (tokens[0] == "members") {
    request->kind = serve::Request::Kind::kMembers;
    ids_ok = tools::ParseIdList(tokens[1], &request->members);
  }
  if (!ids_ok ||
      !ParseWholeInt(tokens[2], INT_MIN, INT_MAX, &request->k)) {
    return false;
  }
  request->exclude_seen = tokens.size() > 3 && tokens[3] == "x";
  return true;
}

void PrintStats(const serve::ServerStats& s) {
  std::printf(
      "stats submitted=%lld admitted=%lld completed=%lld shed=%lld "
      "rejected=%lld degraded=%lld reloads=%lld failed_reloads=%lld "
      "peak_queue=%lld backend=%s\n",
      static_cast<long long>(s.submitted), static_cast<long long>(s.admitted),
      static_cast<long long>(s.completed), static_cast<long long>(s.shed),
      static_cast<long long>(s.rejected), static_cast<long long>(s.degraded),
      static_cast<long long>(s.reloads),
      static_cast<long long>(s.failed_reloads),
      static_cast<long long>(s.peak_queue_depth), tensor::ActiveBackendName());
  std::printf(
      "stats.resilience expired=%lld expired_queue=%lld invalid=%lld "
      "retries=%lld worker_faults=%lld hangs_rescued=%lld "
      "worker_restarts=%lld reload_retries=%lld breaker_trips=%lld "
      "breaker_reopens=%lld breaker_closes=%lld breaker_probes=%lld "
      "breaker_state=%s now_tick=%llu\n",
      static_cast<long long>(s.expired),
      static_cast<long long>(s.expired_queue),
      static_cast<long long>(s.invalid), static_cast<long long>(s.retries),
      static_cast<long long>(s.worker_faults),
      static_cast<long long>(s.hangs_rescued),
      static_cast<long long>(s.worker_restarts),
      static_cast<long long>(s.reload_retry_attempts),
      static_cast<long long>(s.breaker_trips),
      static_cast<long long>(s.breaker_reopens),
      static_cast<long long>(s.breaker_closes),
      static_cast<long long>(s.breaker_probes),
      serve::BreakerStateName(static_cast<serve::BreakerState>(s.breaker_state))
          .c_str(),
      static_cast<unsigned long long>(s.now_tick));
}

void PrintHealth(const serve::ServerHealth& h) {
  std::printf(
      "health running=%d accepting=%d paused=%d queue_depth=%d "
      "now_tick=%llu gen=%llu breaker=%s reload_retry_pending=%d\n",
      h.running ? 1 : 0, h.accepting ? 1 : 0, h.paused ? 1 : 0, h.queue_depth,
      static_cast<unsigned long long>(h.now_tick),
      static_cast<unsigned long long>(h.generation),
      serve::BreakerStateName(h.breaker).c_str(),
      h.reload_retry_pending ? 1 : 0);
  for (const serve::ServerHealth::Worker& w : h.workers) {
    std::printf(
        "health.worker slot=%d alive=%d busy=%d hanging=%d job=%llu "
        "restarts=%lld\n",
        w.slot, w.alive ? 1 : 0, w.busy ? 1 : 0, w.hanging ? 1 : 0,
        static_cast<unsigned long long>(w.job_id),
        static_cast<long long>(w.restarts));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = tools::ParseFlags(argc, argv, 1);
  failpoint::ArmFromEnv();
  const std::string dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (dir.empty() || model_path.empty())
    return Fail("groupsa_serve requires --data DIR and --model FILE");
  int threads = 0;
  if (!IntFlag(flags, "threads", "0", 0, parallel::kMaxThreads, &threads))
    return 1;
  if (threads > 0) parallel::SetGlobalThreads(threads);
  const bool strict = flags.count("strict") != 0;

  tools::Workspace ws;
  if (!tools::LoadWorkspace(dir, flags, &ws)) return 1;

  serve::ServeConfig config;
  if (!IntFlag(flags, "workers", "2", 1, serve::kMaxServeWorkers,
               &config.workers) ||
      !IntFlag(flags, "queue", "64", 1, INT_MAX, &config.queue_depth)) {
    return 1;
  }
  const std::string overload = FlagOr(flags, "overload", "shed");
  if (overload == "reject") {
    config.overload = serve::ServeConfig::OverloadPolicy::kReject;
  } else if (overload != "shed") {
    return Fail("unknown --overload policy: " + overload);
  }
  const std::string topk = FlagOr(flags, "topk", "exact");
  if (topk == "ivf") {
    config.topk = core::TopKMode::kIvf;
    // 0 = the index's auto size rule.
    if (!IntFlag(flags, "nlist", "0", 0, INT_MAX, &config.index.nlist) ||
        !IntFlag(flags, "nprobe", "0", 0, INT_MAX, &config.index.nprobe)) {
      return 1;
    }
  } else if (topk != "exact") {
    return Fail("unknown --topk mode: " + topk);
  }
  const std::string score = FlagOr(flags, "score", "exact");
  if (score == "int8") {
    config.score = core::ScoreMode::kInt8;
    int rerank = 0;  // 0 = Int8Config's default
    if (!IntFlag(flags, "rerank", "0", 0, INT_MAX, &rerank)) return 1;
    if (rerank > 0) config.int8.rerank_k = rerank;
  } else if (score != "exact") {
    return Fail("unknown --score mode: " + score);
  }
  if (const std::string backend = FlagOr(flags, "backend", "");
      !backend.empty() && !tensor::SelectBackendByName(backend)) {
    return Fail("kernel backend not available on this host: " + backend);
  }
  // Tick budgets stop at INT64_MAX, so a tick plus a budget cannot wrap.
  if (!IntFlag<uint64_t>(flags, "deadline", "0", 0, INT64_MAX,
                         &config.deadline_ticks) ||
      !IntFlag(flags, "retries", "0", 0, INT_MAX,
               &config.backoff.max_retries) ||
      !IntFlag(flags, "reload-retries", "0", 0, INT_MAX,
               &config.reload_retries)) {
    return 1;
  }
  if (flags.count("breaker") != 0) {
    config.breaker.enabled = true;
    serve::BreakerConfig& b = config.breaker;
    if (!IntFlag(flags, "breaker-window", "16", 1, INT_MAX, &b.window) ||
        !IntFlag(flags, "breaker-threshold", "8", 1, b.window,
                 &b.threshold) ||
        !IntFlag(flags, "breaker-probes", "2", 1, INT_MAX, &b.probes) ||
        !IntFlag<uint64_t>(flags, "breaker-open", "32", 0, INT64_MAX,
                           &b.open_ticks)) {
      return 1;
    }
  }
  config.supervise = flags.count("no-supervise") == 0;

  // Each generation is a fresh model with the checkpoint's parameters. A
  // load failure degrades to popularity-only serving unless --strict.
  serve::Server::ModelFactory factory =
      [&ws, strict](const std::string& path,
                    std::unique_ptr<core::GroupSaModel>* out) -> Status {
    Rng rng(ws.seed + 1);
    auto model = std::make_unique<core::GroupSaModel>(
        ws.config, ws.dataset.num_users, ws.dataset.num_items, ws.model_data,
        &rng);
    if (Status s = nn::LoadParameters(model->Parameters(), path); !s.ok()) {
      if (strict) return s;
      std::fprintf(stderr, "warning: %s; serving popularity fallback\n",
                   s.message().c_str());
      out->reset();
      return Status::Ok();
    }
    *out = std::move(model);
    return Status::Ok();
  };

  serve::Server server(config, std::move(factory), model_path, ws.ui.train,
                       ws.dataset.num_users, ws.dataset.groups.num_groups(),
                       ws.dataset.num_items, &ws.ui_train, &ws.gi_train);
  if (Status s = server.Start(); !s.ok()) return Fail(s.message());
  std::printf("serving %s (%d workers, queue %d, %s overload, gen %llu)\n",
              dir.c_str(), config.workers, config.queue_depth,
              overload.c_str(),
              static_cast<unsigned long long>(server.generation()));

  std::FILE* script = stdin;
  const std::string script_path = FlagOr(flags, "script", "");
  if (!script_path.empty() && script_path != "-") {
    script = std::fopen(script_path.c_str(), "r");
    if (script == nullptr) return Fail("cannot open script " + script_path);
  }

  char line[4096];
  uint64_t line_no = 0;
  while (std::fgets(line, sizeof(line), script) != nullptr) {
    ++line_no;
    std::string text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
      text.pop_back();
    if (text.empty() || text[0] == '#') continue;
    std::vector<std::string> tokens;
    for (const std::string& token : StrSplit(text, ' '))
      if (!token.empty()) tokens.push_back(token);
    if (tokens.empty()) continue;

    if (tokens[0] == "quit") break;
    if (tokens[0] == "stats") {
      PrintStats(server.stats());
      continue;
    }
    if (tokens[0] == "health") {
      PrintHealth(server.Health());
      continue;
    }
    if (tokens[0] == "reload") {
      const std::string path = tokens.size() > 1 ? tokens[1] : model_path;
      if (Status s = server.Reload(path); !s.ok()) {
        std::printf("reload failed: %s\n", s.message().c_str());
      } else {
        std::printf("reloaded gen=%llu\n",
                    static_cast<unsigned long long>(server.generation()));
      }
      continue;
    }
    serve::Request request;
    if (!ParseRequestLine(tokens, &request)) {
      std::printf("line %llu: bad command: %s\n",
                  static_cast<unsigned long long>(line_no), text.c_str());
      continue;
    }
    const serve::Response response = server.Call(request);
    std::printf("%s -> %s\n", serve::FormatRequest(request).c_str(),
                serve::FormatResponse(response).c_str());
  }
  if (script != stdin) std::fclose(script);

  server.Stop();
  PrintStats(server.stats());
  return 0;
}
