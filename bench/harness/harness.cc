#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <thread>

#include "text/simd.h"

#ifndef HARNESS_BUILD_TYPE
#define HARNESS_BUILD_TYPE "unknown"
#endif

namespace harness {

namespace {

// Every metric the harness can report. `moves` names the end-to-end metric,
// on the named workload, that a change in a layer metric should move.
// Regression bounds live only in BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;
};

constexpr MetricDef kCatalog[] = {
    // End-to-end: every workload reports these (BENCHMARK.json end_to_end).
    {"latency_p50_ms", "ms", "lower", ""},
    {"quality", "ratio", "higher", ""},
    {"rss_mb", "MB", "lower", ""},
    {"setup_s", "s", "lower", ""},
    // End-to-end, served_mixed only.
    {"served.match_p99_ms", "ms", "lower", ""},
    {"served.inline_p99_ms", "ms", "lower", ""},
    {"served.search_p99_ms", "ms", "lower", ""},
    {"served.max_rps", "1/s", "higher", ""},

    // Per-layer: every workload reports these (BENCHMARK.json per_layer).
    {"parse_ms", "ms", "lower", "latency_p50_ms @ batch_paper_pair"},
    {"preprocess_ms", "ms", "lower", "latency_p50_ms @ batch_large_blocked"},
    {"kernel_ms", "ms", "lower", "latency_p50_ms @ batch_paper_pair"},
    {"export_ms", "ms", "lower", "latency_p50_ms @ batch_large_blocked"},
    {"cells_scored", "count", "lower", "kernel_ms @ batch_large_blocked"},
    {"candidate_ratio", "ratio", "lower", "kernel_ms @ batch_large_blocked"},
    {"trace_overhead_pct", "%", "lower", "none (cost of the traced run)"},
    // Per-layer, batch and nway.
    {"unattributed_pct", "%", "lower", "none (layer-sum check gap)"},
    {"common.pool_busy_pct", "%", "higher",
     "latency_p50_ms @ batch_paper_pair, nway_vocab"},
    {"common.shard_skew", "ratio", "lower",
     "latency_p50_ms @ batch_paper_pair, nway_vocab"},
    // Per-layer, batch.
    {"core.select_ms", "ms", "lower", "latency_p50_ms @ batch_large_blocked"},
    {"core.teardown_ms", "ms", "lower",
     "latency_p50_ms, rss_mb @ batch_large_blocked"},
    {"core.matrix_mb", "MB", "lower", "rss_mb @ batch_large_blocked"},
    {"core.cells_pruned", "count", "higher",
     "kernel_ms @ batch_large_blocked"},
    {"core.voter.name_string_ms", "ms", "lower",
     "kernel_ms @ batch_paper_pair"},
    {"core.voter.name_token_ms", "ms", "lower",
     "kernel_ms @ batch_paper_pair"},
    {"core.voter.documentation_ms", "ms", "lower",
     "kernel_ms @ batch_paper_pair"},
    {"core.voter.data_type_ms", "ms", "lower",
     "kernel_ms @ batch_paper_pair"},
    {"core.voter.structural_ms", "ms", "lower",
     "kernel_ms @ batch_paper_pair"},
    {"core.voter.acronym_ms", "ms", "lower", "kernel_ms @ batch_paper_pair"},
    // Per-layer, nway.
    {"nway.match_ms", "ms", "lower", "latency_p50_ms @ nway_vocab"},
    {"nway.merge_ms", "ms", "lower", "latency_p50_ms @ nway_vocab"},
    {"nway.overlap_ms", "ms", "higher", "latency_p50_ms @ nway_vocab"},
    {"nway.pairs_matched", "count", "lower", "latency_p50_ms @ nway_vocab"},
    {"nway.links", "count", "lower", "latency_p50_ms @ nway_vocab"},
    {"nway.terms", "count", "lower", "latency_p50_ms @ nway_vocab"},
    // Per-layer, served.
    {"service.encode_us", "us", "lower", "latency_p50_ms @ served_mixed"},
    {"service.decode_us", "us", "lower", "latency_p50_ms @ served_mixed"},
    {"service.net_us", "us", "lower", "latency_p50_ms @ served_mixed"},
    {"service.queue_wait_p50_ms", "ms", "lower",
     "served.match_p99_ms, served.max_rps @ served_mixed"},
    {"service.queue_wait_p99_ms", "ms", "lower",
     "served.match_p99_ms, served.max_rps @ served_mixed"},
    {"service.reply_write_us", "us", "lower",
     "served.match_p99_ms, served.max_rps @ served_mixed"},
    {"service.handler_match_p50_ms", "ms", "lower",
     "latency_p50_ms @ served_mixed"},
    {"service.handler_match_p99_ms", "ms", "lower",
     "served.match_p99_ms @ served_mixed"},
    {"service.handler_inline_p99_ms", "ms", "lower",
     "served.inline_p99_ms @ served_mixed"},
    {"service.handler_search_p99_ms", "ms", "lower",
     "served.search_p99_ms @ served_mixed"},
    {"service.engine_cache_hit_ratio", "ratio", "higher",
     "served.match_p99_ms @ served_mixed"},
    {"service.engine_builds", "count", "lower",
     "served.match_p99_ms @ served_mixed"},
    {"service.engine_evictions", "count", "lower",
     "served.match_p99_ms @ served_mixed"},
    {"service.engine_build_ms", "ms", "lower",
     "served.match_p99_ms @ served_mixed"},
    {"core.stage_retrieve_ms", "ms", "lower",
     "latency_p50_ms @ served_mixed"},
    {"core.stage_rank_ms", "ms", "lower", "latency_p50_ms @ served_mixed"},
    {"core.stage_rerank_ms", "ms", "lower",
     "latency_p50_ms @ served_mixed"},
    {"service.gen_lag_ms", "ms", "lower", "served.max_rps @ served_mixed"},
    {"service.rejected", "count", "lower",
     "failure share @ served_mixed"},
    {"service.protocol_errors", "count", "lower",
     "failure share @ served_mixed"},
};

const MetricDef* FindDef(const std::string& name) {
  for (const auto& def : kCatalog) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::pair<const SpanLog*, int>> t_open_spans;

}  // namespace

// ---------------------------------------------------------------------------
// RunResult.

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void RunResult::Set(const std::string& name, double value) {
  if (FindDef(name) == nullptr) {
    std::fprintf(stderr, "harness bug: metric %s is not cataloged\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void RunResult::Note(const std::string& key, const std::string& json_value) {
  notes_[key] = json_value;
}

bool RunResult::Write(const std::string& path, const RunConfig& config,
                      const std::string& fingerprint_json) const {
  std::ostringstream out;
  out << "{\n  \"workload\": " << JsonString(config.workload)
      << ",\n  \"seed\": " << config.seed
      << ",\n  \"traced\": " << (config.traced ? "true" : "false")
      << ",\n  \"correct\": " << (correct() ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures_[i]);
  }
  out << "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values_) {
    const MetricDef* def = FindDef(name);
    out << (first ? "\n" : ",\n") << "    " << JsonString(name)
        << ": {\"value\": " << FormatDouble(value)
        << ", \"unit\": " << JsonString(def->unit)
        << ", \"better\": " << JsonString(def->better);
    if (*def->moves != '\0') out << ", \"moves\": " << JsonString(def->moves);
    out << "}";
    first = false;
  }
  out << "\n  },\n  \"notes\": {";
  first = true;
  for (const auto& [key, value] : notes_) {
    out << (first ? "\n" : ",\n") << "    " << JsonString(key) << ": "
        << value;
    first = false;
  }
  out << "\n  },\n  \"fingerprint\": " << fingerprint_json << "\n}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

// ---------------------------------------------------------------------------
// SpanLog.

SpanLog::Span::Span(SpanLog* log, const char* name, uint64_t request_id)
    : log_(log) {
  if (log_ == nullptr) return;
  int parent = -1;
  if (!t_open_spans.empty() && t_open_spans.back().first == log_) {
    parent = t_open_spans.back().second;
  }
  {
    std::lock_guard<std::mutex> lock(log_->mu_);
    index_ = log_->records_.size();
    log_->records_.push_back(
        {name, harmony::obs::MonotonicNanos(), 0, request_id, parent});
  }
  t_open_spans.emplace_back(log_, static_cast<int>(index_));
}

SpanLog::Span::~Span() {
  if (log_ == nullptr) return;
  const uint64_t end = harmony::obs::MonotonicNanos();
  t_open_spans.pop_back();
  Record record;
  {
    std::lock_guard<std::mutex> lock(log_->mu_);
    log_->records_[index_].end_ns = end;
    record = log_->records_[index_];
  }
  if (log_->tracer_ != nullptr) {
    if (record.request_id != 0) {
      log_->tracer_->Emit(record.name, record.start_ns, end, record.request_id,
                          "harness");
    } else {
      log_->tracer_->Emit(record.name, record.start_ns, end);
    }
  }
}

std::map<std::string, double> SpanLog::SelfSeconds(const char* root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    self[i] = static_cast<double>(records_[i].end_ns - records_[i].start_ns);
  }
  // Children nest inside their parent on one thread, so the time they cover
  // is the sum of their durations.
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].parent >= 0) {
      self[records_[i].parent] -=
          static_cast<double>(records_[i].end_ns - records_[i].start_ns);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    int top = static_cast<int>(i);
    while (records_[top].parent >= 0) top = records_[top].parent;
    if (root != nullptr && std::string(records_[top].name) != root) continue;
    out[records_[i].name] += self[i] * 1e-9;
  }
  return out;
}

double SpanLog::TotalSeconds(const char* name, size_t* count) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  size_t n = 0;
  for (const auto& r : records_) {
    if (std::string(r.name) != name) continue;
    total += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

// ---------------------------------------------------------------------------
// Helpers.

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

/// A kB field of /proc/self/status ("VmHWM:", "VmRSS:"), in MB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double ResidentMb() { return StatusMb("VmRSS:"); }

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

void ReleaseFreedHeap() { malloc_trim(0); }

bool SetupTimes::Due(double start) const {
  if (config_.smoke || config_.traced || seconds_.size() >= kPasses) return false;
  const double next = start + static_cast<double>(seconds_.size()) *
                                  config_.seconds / static_cast<double>(kPasses);
  return Now() >= next;
}

double SetupTimes::Median() const { return harness::Median(seconds_); }

std::string LoadAverageJson() {
  std::ifstream file("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  file >> one >> five >> fifteen;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%.2f, %.2f, %.2f]", one, five, fifteen);
  return buf;
}

double F1(size_t selected, size_t truth, size_t hits) {
  if (hits == 0) return 0.0;
  const double p = static_cast<double>(hits) / static_cast<double>(selected);
  const double r = static_cast<double>(hits) / static_cast<double>(truth);
  return 2 * p * r / (p + r);
}

double HistogramSumMs(const harmony::obs::MetricsSnapshot& snapshot,
                      const char* name, double* count) {
  const auto* h = snapshot.FindHistogram(name);
  if (count != nullptr) *count = h == nullptr ? 0 : static_cast<double>(h->count);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum) * 1e-6;
}

double CounterValue(const harmony::obs::MetricsSnapshot& snapshot,
                    const char* name) {
  const auto* c = snapshot.FindCounter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value);
}

void SetPoolMetrics(const harmony::obs::MetricsSnapshot& pool_delta,
                    const harmony::obs::MetricsSnapshot& engine,
                    RunResult& result) {
  const double busy = CounterValue(pool_delta, "pool.busy_ns");
  const double idle = CounterValue(pool_delta, "pool.idle_ns");
  if (busy + idle > 0) result.Set("common.pool_busy_pct", 100 * busy / (busy + idle));
  const auto* shards = engine.FindHistogram("parallel_for.shard_ns");
  if (shards != nullptr && shards->count > 0) {
    result.Set("common.shard_skew",
               static_cast<double>(shards->PercentileUpperBound(0.99)) /
                   static_cast<double>(shards->PercentileUpperBound(0.5)));
  }
}

std::string Digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void FinishTrace(harmony::obs::Tracer& tracer, const RunConfig& config,
                 RunResult& result) {
  tracer.Stop();
  if (!config.traced || config.trace_path.empty()) return;
  result.Check(tracer.WriteChromeTrace(config.trace_path),
               "trace written to " + config.trace_path);
  result.Note("trace_events", std::to_string(tracer.event_count()));
}

std::string FingerprintJson(const RunConfig& config,
                            const std::string& load_before,
                            const std::string& load_after) {
  namespace simd = harmony::text::simd;
  const char* sha = std::getenv("HARNESS_GIT_SHA");
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd_detected\": "
      << JsonString(simd::LevelName(simd::DetectLevel()))
      << ", \"simd_active\": "
      << JsonString(simd::LevelName(simd::ActiveLevel()))
      << ", \"compiler\": " << JsonString(__VERSION__)
      << ", \"build_type\": " << JsonString(HARNESS_BUILD_TYPE)
      << ", \"harmony_obs\": " << (HARMONY_OBS_ENABLED ? "true" : "false")
      << ", \"git_sha\": " << JsonString(sha != nullptr ? sha : "unknown")
      << ", \"seed\": " << config.seed
      << ", \"seconds\": " << FormatDouble(config.seconds)
      << ", \"smoke\": " << (config.smoke ? "true" : "false")
      << ", \"load_before\": " << load_before
      << ", \"load_after\": " << load_after << "}";
  return out.str();
}

}  // namespace harness
