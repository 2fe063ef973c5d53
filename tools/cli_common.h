// Front end shared by groupsa_cli and groupsa_serve: flag parsing, int
// flags and id lists read through the one whole-number check, error exit,
// and the dataset-derived workspace every model is built from. One
// derivation for both tools is what lets the daemon serve a checkpoint
// exactly as its training process scored it.

#ifndef GROUPSA_TOOLS_CLI_COMMON_H_
#define GROUPSA_TOOLS_CLI_COMMON_H_

#include <climits>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/config.h"
#include "core/groupsa_model.h"
#include "data/io.h"
#include "data/split.h"
#include "data/tfidf.h"

namespace groupsa::tools {

using Flags = std::map<std::string, std::string>;

// --key value / --key=value parser over argv[first..]. Anything but the
// next flag is a flag's value, "-1" included; a flag without one reads "1".
inline Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    std::string value = "1";
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      value = argv[++i];
    }
    flags[arg] = std::move(value);
  }
  return flags;
}

inline std::string FlagOr(const Flags& flags, const std::string& key,
                          const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

inline int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// Parses a comma-separated id list ("1,2,3") into *out, each id through
// ParseWholeInt; an empty token ("1,,2", "1,") is malformed. Only the
// syntax is checked here: range and duplicate ids are core::ValidateQuery's.
inline bool ParseIdList(const std::string& text, std::vector<int32_t>* out) {
  std::vector<int32_t> ids;
  for (const std::string& token : StrSplit(text, ',')) {
    int id = 0;
    if (!ParseWholeInt(token, INT_MIN, INT_MAX, &id)) return false;
    ids.push_back(id);
  }
  *out = std::move(ids);
  return true;
}

// Reads integer flag `name` (`fallback` when absent) into *out, as an int
// or a uint64_t. A value that is not a whole decimal number in [min, max]
// (ParseWholeInt) prints an error naming the flag and returns false, so a
// bad value stops here rather than reaching a constructor CHECK or a
// silently wrong run.
template <typename T>
bool IntFlag(const Flags& flags, const std::string& name,
             const std::string& fallback, T min, T max, T* out) {
  const std::string text = FlagOr(flags, name, fallback);
  if (ParseWholeInt(text, min, max, out)) return true;
  const std::string range =
      max == std::numeric_limits<T>::max()
          ? ">= " + std::to_string(min)
          : "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
  Fail(StrFormat("--%s must be an integer %s, got '%s'", name.c_str(),
                 range.c_str(), text.c_str()));
  return false;
}

// The dataset at `dir` plus everything derived from it and --seed (default
// 1): the user-item and group-item splits, their training matrices, and the
// model data (TF-IDF neighbourhoods) under the default config. The model
// data points into the workspace, so it stays where it was loaded.
struct Workspace {
  data::Dataset dataset;
  data::Split ui;
  data::Split gi;
  data::InteractionMatrix ui_train;
  data::InteractionMatrix gi_train;
  core::ModelData model_data;
  core::GroupSaConfig config;
  uint64_t seed = 1;
};

inline bool LoadWorkspace(const std::string& dir, const Flags& flags,
                          Workspace* ws) {
  if (!IntFlag(flags, "seed", "1", uint64_t{0}, UINT64_MAX, &ws->seed))
    return false;
  if (Status s = data::LoadDataset(dir, &ws->dataset); !s.ok()) {
    Fail(s.message());
    return false;
  }
  Rng rng(ws->seed);
  ws->ui = data::SplitEdges(ws->dataset.user_item, 0.2, 0.1, &rng);
  ws->gi = data::GlobalSplitEdges(ws->dataset.group_item, 0.2, 0.1, &rng);
  ws->ui_train = data::InteractionMatrix(ws->dataset.num_users,
                                         ws->dataset.num_items, ws->ui.train);
  ws->gi_train = data::InteractionMatrix(ws->dataset.groups.num_groups(),
                                         ws->dataset.num_items, ws->gi.train);
  ws->config = core::GroupSaConfig::Default();
  ws->model_data.groups = &ws->dataset.groups;
  ws->model_data.social = &ws->dataset.social;
  ws->model_data.top_items =
      data::TopItemsPerUser(ws->ui_train, ws->config.top_h);
  ws->model_data.top_friends =
      data::TopFriendsPerUser(ws->dataset.social, ws->config.top_h);
  return true;
}

}  // namespace groupsa::tools

#endif  // GROUPSA_TOOLS_CLI_COMMON_H_
