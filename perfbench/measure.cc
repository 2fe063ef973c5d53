#include "measure.h"

#include <algorithm>
#include <cmath>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace perfbench {

Quantile NearestRank(std::vector<double> values, double p) {
  Quantile q;
  q.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  // The epsilon keeps p * n from rounding up past an exact integer rank.
  int64_t rank = static_cast<int64_t>(
      std::ceil(p * static_cast<double>(values.size()) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, q.samples);
  q.value = values[static_cast<size_t>(rank - 1)];
  q.beyond = q.samples - rank;
  return q;
}

double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 0.5).value;
}

namespace {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return mix.Next();
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s, int n) {
  SplitMix64 rng(seed);
  std::vector<double> arrivals(static_cast<size_t>(std::max(0, n)));
  double t = 0.0;
  for (double& a : arrivals) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    a = t;
  }
  return arrivals;
}

int SpanRecorder::Open(std::string name, int64_t request_id, int parent,
                       int64_t start_ns) {
  return Add(std::move(name), request_id, parent, start_ns, start_ns);
}

void SpanRecorder::Close(int index, int64_t end_ns) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

int SpanRecorder::Add(std::string name, int64_t request_id, int parent,
                      int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), request_id, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = lo;  // end of the covered prefix so far
    for (const auto& [begin, end] : kids) {
      const int64_t b = std::max(begin, reach);
      const int64_t e = std::min(end, hi);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

void TightenTimerSlack() {
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

void WaitUntilNs(int64_t deadline_ns) {
  // Sleep until shortly before the deadline, then spin the rest: a sleep
  // alone overshoots by tens of microseconds, and a longer spin would take
  // a CPU from the server under test.
  constexpr int64_t kSpinNs = 50'000;
  const int64_t now = NowNs();
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

}  // namespace perfbench
