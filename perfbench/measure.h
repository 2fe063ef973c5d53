#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement helpers shared by the benchmark driver and its tests:
// nearest-rank percentiles, seeded Poisson schedules, bench-side spans and
// the open-loop load generator. Nothing here depends on the library under
// test, so a change to the library can never change how it is measured.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

// A nearest-rank percentile: the smallest sample with at least p * n samples
// at or below it. `beyond` counts the samples ranked above it; a tail
// percentile is only trustworthy with at least ten of them.
struct Quantile {
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
  bool supported() const { return beyond >= 10; }
};

Quantile NearestRank(std::vector<double> values, double p);
// NearestRank(values, 0.5).value; 0 for an empty sample.
double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Seeded streams and schedules
// ---------------------------------------------------------------------------

// Both are built on splitmix64, specified in measure.cc, so arrival times
// are a pure function of the seed whatever happens to the library's own
// generators.

// Decorrelated sub-seed for stream `stream` of `seed`.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// Open-loop arrival offsets in seconds from the phase start: cumulative
// exponential gaps at `rate_per_s`, so arrivals form a Poisson process.
std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s, int n);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int64_t request_id = -1;  // -1: not tied to one request
  int parent = -1;          // index of the enclosing span, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span list, written out when the benchmark ends. Single-threaded:
// concurrent phases record raw timestamps and convert them afterwards.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  // Opens a span and returns its index (-1 when disabled).
  int Open(std::string name, int64_t request_id, int parent,
           int64_t start_ns);
  void Close(int index, int64_t end_ns);
  // Records an already finished span; returns its index (-1 when disabled).
  int Add(std::string name, int64_t request_id, int parent, int64_t start_ns,
          int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of it that its
// children cover (children are clipped to the parent, overlaps count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Open-loop load generation
// ---------------------------------------------------------------------------

// Per-request timestamps of one open-loop phase (steady-clock ns).
struct OpenLoopTiming {
  std::vector<int64_t> scheduled_ns;     // when the request was due
  std::vector<int64_t> submit_start_ns;  // when the submit call began
  std::vector<int64_t> submit_end_ns;    // when the submit call returned
  std::vector<int64_t> completed_ns;     // when the waiter saw it complete
  // Gaps between consecutive waiter sweeps while requests were pending. A
  // completion is recorded at most one gap after it happened, so these
  // bound the resolution of every latency.
  std::vector<double> sweep_gap_ms;

  double LatencyMs(size_t i) const {
    return static_cast<double>(completed_ns[i] - scheduled_ns[i]) / 1e6;
  }
  double SendLagMs(size_t i) const {
    return static_cast<double>(submit_start_ns[i] - scheduled_ns[i]) / 1e6;
  }
  double SubmitUs(size_t i) const {
    return static_cast<double>(submit_end_ns[i] - submit_start_ns[i]) / 1e3;
  }
};

// Lets this thread's sleeps end close to their deadline (Linux timer slack
// defaults to 50 us); a no-op elsewhere.
void TightenTimerSlack();

// Sleeps, then spins, until the steady clock reaches `deadline_ns`.
void WaitUntilNs(int64_t deadline_ns);

// Sends request i at arrival_s[i] after the phase start, whether or not
// earlier requests have completed, and times every request from when it was
// due. `submit(i)` must return a std::future<R>.
//
// A waiter thread blocks on the oldest pending future for at most `poll_us`
// microseconds, then sweeps every pending future, so a request that
// completes before an earlier one is charged only its own time. Blocking
// rather than spinning keeps the generator off the CPUs the server needs.
template <typename R, typename SubmitFn>
std::vector<R> RunOpenLoop(const std::vector<double>& arrival_s,
                           SubmitFn&& submit, int poll_us,
                           OpenLoopTiming* timing) {
  const size_t n = arrival_s.size();
  std::vector<std::future<R>> futures(n);
  std::vector<R> responses(n);
  timing->scheduled_ns.assign(n, 0);
  timing->submit_start_ns.assign(n, 0);
  timing->submit_end_ns.assign(n, 0);
  timing->completed_ns.assign(n, 0);
  timing->sweep_gap_ms.clear();
  // A short lead so the first arrival is not already late.
  const int64_t start_ns = NowNs() + 2'000'000;
  for (size_t i = 0; i < n; ++i) {
    timing->scheduled_ns[i] =
        start_ns + static_cast<int64_t>(arrival_s[i] * 1e9);
  }

  // futures[i] is handed to the waiter once `published` exceeds i;
  // `stopped` ends the phase early if a submit throws.
  std::atomic<size_t> published{0};
  std::atomic<bool> stopped{false};
  std::thread waiter([&] {
    TightenTimerSlack();
    const auto poll = std::chrono::microseconds(poll_us);
    std::vector<size_t> pending;  // in submission order
    size_t seen = 0;
    size_t done = 0;
    int64_t last_sweep_ns = -1;
    while (true) {
      const bool stopping = stopped.load(std::memory_order_acquire);
      const size_t available = published.load(std::memory_order_acquire);
      if (done == (stopping ? available : n)) break;
      for (; seen < available; ++seen) pending.push_back(seen);
      if (pending.empty()) {
        last_sweep_ns = -1;
        std::this_thread::sleep_for(poll);
        continue;
      }
      futures[pending.front()].wait_for(poll);
      const int64_t sweep_ns = NowNs();
      if (last_sweep_ns >= 0) {
        timing->sweep_gap_ms.push_back(
            static_cast<double>(sweep_ns - last_sweep_ns) / 1e6);
      }
      last_sweep_ns = sweep_ns;
      size_t kept = 0;
      for (size_t i : pending) {
        if (futures[i].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          timing->completed_ns[i] = NowNs();
          responses[i] = futures[i].get();
          ++done;
        } else {
          pending[kept++] = i;
        }
      }
      pending.resize(kept);
    }
  });

  TightenTimerSlack();
  try {
    for (size_t i = 0; i < n; ++i) {
      WaitUntilNs(timing->scheduled_ns[i]);
      timing->submit_start_ns[i] = NowNs();
      futures[i] = submit(i);
      timing->submit_end_ns[i] = NowNs();
      published.store(i + 1, std::memory_order_release);
    }
  } catch (...) {
    stopped.store(true, std::memory_order_release);
    waiter.join();
    throw;
  }
  waiter.join();
  return responses;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
