// Shared pieces of the benchmark harness: run configuration, the result
// record every workload fills, the harness's own layer spans, and small
// measurement helpers. The harness drives harmony only through its public
// library calls; everything timed here is timed from the outside.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace harness {

/// \brief One invocation: which workload, from which seed, for how long.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget for the timed phase (set-up is extra).
  double seconds = 10.0;
  /// Per-layer run: spans on, layer metrics reported (never end-to-end).
  bool traced = false;
  /// Tiny inputs and a short budget, for the ctest smoke check.
  bool smoke = false;
  /// Where the Chrome trace of a traced run is written ("" = nowhere).
  std::string trace_path;
};

/// \brief Everything a workload run reports. Metric definitions (unit,
/// direction, the end-to-end metric a layer should move) live in one
/// catalog in harness.cc, so a workload only sets values; regression bounds
/// live in BENCHMARK.json.
class RunResult {
 public:
  /// Records an output check; a failed one makes the run incorrect and is
  /// listed by name in the result file and on stderr.
  void Check(bool ok, const std::string& what);
  /// Sets a cataloged metric (aborts on an uncataloged name: a typo would
  /// otherwise silently drop a metric from every report).
  void Set(const std::string& name, double value);
  /// Free-form detail kept in the result file (per-rung tables, digests).
  void Note(const std::string& key, const std::string& json_value);

  bool correct() const { return failures_.empty(); }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Writes the result JSON (metrics with their catalog entries, checks,
  /// notes, and the host fingerprint) to `path`.
  bool Write(const std::string& path, const RunConfig& config,
             const std::string& fingerprint_json) const;

 private:
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
};

// ---------------------------------------------------------------------------
// Layer spans.

/// \brief The harness's span recorder. Spans wrap the harness's calls into
/// each layer; they nest per thread, and a layer's self time is its
/// duration minus what its child spans cover. Every span is also emitted to
/// the obs::Tracer so the Chrome trace shows harness layers above the
/// engine's own spans. With a null recorder a Span does nothing, which is how
/// end-to-end runs stay untraced.
class SpanLog {
 public:
  explicit SpanLog(harmony::obs::Tracer* tracer) : tracer_(tracer) {}

  class Span {
   public:
    /// `name` must be a string literal (the tracer keeps the pointer).
    Span(SpanLog* log, const char* name, uint64_t request_id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanLog* log_;
    size_t index_ = 0;
  };

  /// Summed self seconds per span name, over spans whose outermost ancestor
  /// is named `root` (all spans when `root` is null).
  std::map<std::string, double> SelfSeconds(const char* root = nullptr) const;
  /// Summed duration of the spans named `name`, and how many there were.
  double TotalSeconds(const char* name, size_t* count = nullptr) const;

 private:
  struct Record {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t request_id;
    int parent;  // index into records_, -1 for a root
  };

  harmony::obs::Tracer* tracer_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Measurement helpers.

/// Monotonic seconds (steady clock).
double Now();

/// The q-quantile (0..1) of `values` by the nearest-rank rule; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MB: since the last
/// ResetPeakRss(), or since the start.
double PeakRssMb();
/// Restarts the peak at the current resident size, so the next PeakRssMb()
/// covers only what ran in between (Linux clear_refs). Returns false where
/// the kernel does not allow it; the peak then keeps covering the process.
bool ResetPeakRss();
/// Resident set size of this process now (VmRSS), in MB.
double ResidentMb();
/// Returns freed heap to the kernel (glibc malloc_trim), so that heap the
/// allocator kept after a set-up pass, or after a burst of requests, does
/// not count as resident.
void ReleaseFreedHeap();

/// \brief Set-up time as the median of passes spread over the measured
/// phase. The host's speed drifts in phases of a few seconds, so passes run
/// back to back all land in one phase; spread passes sample several.
class SetupTimes {
 public:
  explicit SetupTimes(const RunConfig& config) : config_(config) {}
  /// Runs one set-up pass and records its duration.
  template <typename Fn>
  auto Time(Fn&& fn) {
    const double t0 = Now();
    auto out = fn();
    seconds_.push_back(Now() - t0);
    return out;
  }
  /// Whether another pass is due in the measured phase that began at
  /// `start`. Smoke and traced runs report no set-up time and take none.
  bool Due(double start) const;
  double Median() const;

 private:
  /// Passes, the first included, spread over config.seconds.
  static constexpr size_t kPasses = 12;
  const RunConfig& config_;
  std::vector<double> seconds_;
};

/// The 1-, 5- and 15-minute load averages as a JSON array.
std::string LoadAverageJson();

/// F1 of `hits` correct links among `selected`, against `truth` true ones.
double F1(size_t selected, size_t truth, size_t hits);

/// Sum of a nanosecond histogram in ms (0 when absent), and its count.
double HistogramSumMs(const harmony::obs::MetricsSnapshot& snapshot,
                      const char* name, double* count = nullptr);
/// A counter's value (0 when absent).
double CounterValue(const harmony::obs::MetricsSnapshot& snapshot,
                    const char* name);
/// Sets common.pool_busy_pct from the engine pool's registry delta and
/// common.shard_skew from the registry ParallelFor reported to.
void SetPoolMetrics(const harmony::obs::MetricsSnapshot& pool_delta,
                    const harmony::obs::MetricsSnapshot& engine,
                    RunResult& result);

/// 64-bit FNV-1a digest, as 16 hex digits.
std::string Digest(const std::string& bytes);

/// Minimal JSON string quoting.
std::string JsonString(const std::string& s);

/// Stops `tracer` and, on a traced run, writes its Chrome trace to
/// config.trace_path (checked).
void FinishTrace(harmony::obs::Tracer& tracer, const RunConfig& config,
                 RunResult& result);

/// Host and build fingerprint (everything but the load averages, which the
/// caller samples around the run).
std::string FingerprintJson(const RunConfig& config,
                            const std::string& load_before,
                            const std::string& load_after);

// ---------------------------------------------------------------------------
// Workloads. Each builds its inputs from config.seed, measures for
// config.seconds, and checks its own outputs.

void RunBatchPaperPair(const RunConfig& config, RunResult& result);
void RunBatchLargeBlocked(const RunConfig& config, RunResult& result);
void RunNwayVocab(const RunConfig& config, RunResult& result);
void RunServedMixed(const RunConfig& config, RunResult& result);

}  // namespace harness
