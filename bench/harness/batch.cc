// Batch workloads: one engineer matching one schema pair from files, as
// `harmony_match match source.sql target.xsd` does. The source side is
// rendered as SQL DDL and the target as XSD, so every rep pays the parsers
// too. One rep is parse -> MatchEngine -> ComputeMatrixFor -> select ->
// path+CSV export -> teardown; the rep's wall time is the operation latency.
// A run cycles through several pairs generated from its seed, so its
// median and its F1 do not hinge on one pair's quirks.

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/csv.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/match_engine.h"
#include "core/selection.h"
#include "harness.h"
#include "service/state.h"
#include "sql/ddl_exporter.h"
#include "synth/generator.h"
#include "xml/xsd_exporter.h"

namespace harness {

namespace {

using namespace harmony;
using Span = SpanLog::Span;

constexpr double kThreshold = 0.35;

struct BatchSpec {
  synth::PairSpec pair;
  core::BlockingMode blocking = core::BlockingMode::kOff;
  /// Pairs generated per run (pair k uses seed ^ k * golden ratio).
  size_t pairs = 1;
  /// Lowest pooled F1 any seed may produce, from a 20-seed sweep with
  /// margin: a drop below it is a quality regression, not input variety.
  double f1_floor = 0.0;
};

/// One generated pair as the program sees it (DDL and XSD text), plus its
/// true links as element ids of the re-imported schemata (parsing is
/// deterministic, so every rep sees the same ids).
struct Input {
  std::string ddl;
  std::string xsd;
  std::set<std::pair<schema::ElementId, schema::ElementId>> truth;
};

/// Re-imports the rendered texts, checks that they keep every generated
/// element path (the truth is written in those paths), and resolves the
/// truth to element ids.
void ResolveTruth(const synth::GeneratedPair& pair, Input& in,
                  RunResult& result) {
  auto source = service::ParseSchemaAuto(in.ddl, "SA");
  auto target = service::ParseSchemaAuto(in.xsd, "SB");
  result.Check(source.ok() && target.ok(), "batch inputs parse");
  if (!source.ok() || !target.ok()) return;
  size_t lost = 0;
  for (const auto& [generated, parsed] :
       {std::pair{&pair.source, &*source}, std::pair{&pair.target, &*target}}) {
    for (schema::ElementId id : generated->AllElementIds()) {
      lost += !parsed->FindByPath(generated->Path(id)).ok();
    }
  }
  result.Check(lost == 0, StringFormat("re-import keeps every generated path "
                                       "(%zu lost)", lost));
  for (const auto* list :
       {&pair.truth.element_matches, &pair.truth.concept_matches}) {
    for (const auto& [sp, tp] : *list) {
      auto s = source->FindByPath(sp);
      auto t = target->FindByPath(tp);
      if (s.ok() && t.ok()) in.truth.insert({*s, *t});
    }
  }
}

/// The same rendering harmony_match match --csv prints.
std::string LinksCsv(const schema::Schema& source, const schema::Schema& target,
                     const std::vector<core::Correspondence>& links) {
  CsvWriter w;
  w.AppendRow({"source_path", "target_path", "score"});
  for (const auto& link : links) {
    w.AppendRow({source.Path(link.source), target.Path(link.target),
                 StringFormat("%.4f", link.score)});
  }
  return w.ToString();
}

/// Digest of the selected links with their exact score bits.
std::string LinkDigest(const std::vector<core::Correspondence>& links) {
  std::string bytes;
  for (const auto& link : links) {
    bytes += StringFormat("%u,%u,%a;", link.source, link.target, link.score);
  }
  return Digest(bytes);
}

struct RepOutput {
  double wall_s = 0;
  std::vector<core::Correspondence> links;
  core::EngineStats stats;
  size_t rows = 0;
  size_t cols = 0;
};

/// One timed rep. `spans` is null on untraced reps.
RepOutput RunRep(const Input& in, const core::MatchOptions& options,
                 const core::EngineContext& context, SpanLog* spans,
                 RunResult& result) {
  RepOutput out;
  const double t0 = Now();
  {
    Span rep(spans, "batch.rep");
    std::optional<schema::Schema> source;
    std::optional<schema::Schema> target;
    {
      Span s(spans, "parse");
      auto a = service::ParseSchemaAuto(in.ddl, "SA");
      auto b = service::ParseSchemaAuto(in.xsd, "SB");
      result.Check(a.ok() && b.ok(), "batch inputs parse");
      if (!a.ok() || !b.ok()) return out;
      source.emplace(std::move(*a));
      target.emplace(std::move(*b));
    }
    std::unique_ptr<core::MatchEngine> engine;
    {
      Span s(spans, "preprocess");
      engine = std::make_unique<core::MatchEngine>(*source, *target, options,
                                                   context);
    }
    std::optional<core::MatchMatrix> matrix;
    {
      Span s(spans, "kernel");
      matrix.emplace(engine->ComputeMatrixFor(kThreshold));
    }
    {
      Span s(spans, "select");
      out.links = core::SelectByThreshold(*matrix, kThreshold, context);
    }
    std::string csv;
    {
      Span s(spans, "export");
      csv = LinksCsv(*source, *target, out.links);
    }
    out.stats = engine->StatsReport();
    out.rows = matrix->rows();
    out.cols = matrix->cols();
    {
      Span s(spans, "teardown");
      matrix.reset();
      engine.reset();
      source.reset();
      target.reset();
      csv = {};
    }
  }
  out.wall_s = Now() - t0;
  return out;
}

void RunBatch(const RunConfig& config, const BatchSpec& spec, RunResult& result) {
  const size_t npairs = config.smoke ? 1 : spec.pairs;

  // Set-up: generate the pairs and render them as the program sees them.
  // Later passes, spread over the timed reps, must render the same texts.
  SetupTimes setups(config);
  auto generate = [&] {
    std::pair<std::vector<synth::GeneratedPair>, std::vector<Input>> out;
    for (size_t k = 0; k < npairs; ++k) {
      synth::PairSpec pair_spec = spec.pair;
      pair_spec.seed = config.seed ^ (k * 0x9e3779b97f4a7c15ull);
      out.first.push_back(synth::GeneratePair(pair_spec));
      out.second.push_back({sql::ExportDdl(out.first[k].source),
                            xml::ExportXsd(out.first[k].target), {}});
    }
    return out;
  };
  auto [pairs, inputs] = setups.Time(generate);
  for (size_t k = 0; k < npairs; ++k) ResolveTruth(pairs[k], inputs[k], result);
  pairs.clear();
  ReleaseFreedHeap();
  auto regenerate = [&] {
    size_t differ = 0;
    {
      const auto again = setups.Time(generate).second;
      for (size_t k = 0; k < npairs; ++k) {
        differ += again[k].ddl != inputs[k].ddl || again[k].xsd != inputs[k].xsd;
      }
    }
    ReleaseFreedHeap();
    result.Check(differ == 0, StringFormat("set-up renders every pair identically "
                                           "(%zu differ)", differ));
  };

  // Harness-owned services: a root registry for the engine counters, a
  // 4-wide pool reporting into its own registry, and the tracer. Untraced
  // reps run on a context without the tracer.
  obs::MetricsRegistry registry;
  obs::MetricsRegistry pool_registry;
  obs::Tracer tracer;
  common::ThreadPool pool(0, core::EngineContext(&pool_registry, &tracer));
  const core::EngineContext plain(&registry, nullptr, &pool);
  const core::EngineContext traced(&registry, &tracer, &pool);
  SpanLog spans(&tracer);

  core::MatchOptions options;
  options.threshold = kThreshold;
  options.blocking.mode = spec.blocking;
  core::MatchOptions traced_options = options;
  traced_options.collect_stats = true;

  // Warm-up: one untimed rep starts the pool threads and grows the heap.
  RunRep(inputs[0], options, plain, nullptr, result);

  // Timed reps cycle through the pairs, each pair at least twice. A pair's
  // first rep fixes its link digest and is scored against the truth; every
  // later rep of the pair must select the same links. A traced run
  // alternates untraced and traced reps on the same pair, for the tracing
  // overhead.
  std::vector<std::string> digests(npairs);
  size_t selected = 0, truth = 0, hits = 0;
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::vector<double> peak_rss;  // per untraced rep
  std::vector<core::EngineStats> traced_stats;
  size_t cells = 0;
  if (config.traced) tracer.Start();
  const obs::MetricsSnapshot pool_before = pool_registry.Snapshot();
  const double start = Now();
  const size_t min_reps = 2 * npairs;
  for (size_t rep = 0;
       rep < min_reps || (Now() - start < config.seconds && !config.smoke);
       ++rep) {
    if (setups.Due(start)) regenerate();
    const bool trace_this = config.traced && rep % 2 == 1;
    const size_t k = (config.traced ? rep / 2 : rep) % npairs;
    const bool rss = !trace_this && ResetPeakRss();
    RepOutput out =
        trace_this ? RunRep(inputs[k], traced_options, traced, &spans, result)
                   : RunRep(inputs[k], options, plain, nullptr, result);
    ++result.attempted;
    if (out.wall_s == 0) {
      ++result.failed;
      continue;
    }
    const std::string digest = LinkDigest(out.links);
    if (digests[k].empty()) {
      digests[k] = digest;
      selected += out.links.size();
      truth += inputs[k].truth.size();
      for (const auto& l : out.links) hits += inputs[k].truth.count({l.source, l.target});
    }
    result.Check(digest == digests[k],
                 StringFormat("rep %zu selects pair %zu's first links", rep, k));
    (trace_this ? traced_walls : plain_walls).push_back(out.wall_s);
    if (rss) peak_rss.push_back(PeakRssMb());
    if (trace_this) traced_stats.push_back(out.stats);
    cells += out.rows * out.cols;
  }
  FinishTrace(tracer, config, result);
  const double f1 = F1(selected, truth, hits);
  result.Check(f1 >= spec.f1_floor,
               StringFormat("f1 %.4f >= floor %.4f", f1, spec.f1_floor));
  result.Note("reps", std::to_string(plain_walls.size()));
  result.Note("pairs", std::to_string(npairs));
  result.Note("mean_cells", std::to_string(cells / result.attempted));

  if (!config.traced) {
    result.Set("latency_p50_ms", Median(plain_walls) * 1e3);
    // Resident memory while one match runs (inputs and harness included);
    // the whole-process peak where the kernel cannot restart it.
    result.Set("rss_mb", peak_rss.empty() ? PeakRssMb() : Median(peak_rss));
    result.Set("quality", f1);
    result.Set("setup_s", setups.Median());
    return;
  }

  // Per-layer view from the traced reps.
  const double n = static_cast<double>(traced_walls.size());
  auto self = spans.SelfSeconds("batch.rep");
  auto per_rep_ms = [&](const char* layer) { return self[layer] / n * 1e3; };
  result.Set("parse_ms", per_rep_ms("parse"));
  result.Set("preprocess_ms", per_rep_ms("preprocess"));
  result.Set("kernel_ms", per_rep_ms("kernel"));
  result.Set("core.select_ms", per_rep_ms("select"));
  result.Set("export_ms", per_rep_ms("export"));
  result.Set("core.teardown_ms", per_rep_ms("teardown"));
  const double gap = self["batch.rep"] / spans.TotalSeconds("batch.rep");
  result.Set("unattributed_pct", gap * 100);
  result.Check(gap <= 0.05,
               StringFormat("batch layers cover the rep (%.1f%% unattributed "
                            "outside parse/preprocess/kernel/select/export/"
                            "teardown)",
                            gap * 100));
  result.Set("trace_overhead_pct",
             (Median(traced_walls) / Median(plain_walls) - 1) * 100);

  double scored = 0, pruned = 0;
  std::map<std::string, double> voter_ns;
  for (const auto& s : traced_stats) {
    scored += static_cast<double>(s.cells_scored);
    pruned += static_cast<double>(s.cells_pruned);
    for (const auto& v : s.voters) voter_ns[v.name] += static_cast<double>(v.total_ns);
  }
  result.Set("cells_scored", scored / n);
  result.Set("core.cells_pruned", pruned / n);
  result.Set("candidate_ratio", scored / (scored + pruned));
  result.Set("core.matrix_mb", (scored + pruned) / n * sizeof(double) / (1 << 20));
  for (const auto& [name, ns] : voter_ns) {
    result.Set("core.voter." + name + "_ms", ns / n * 1e-6);
  }

  SetPoolMetrics(pool_registry.Snapshot().DeltaFrom(pool_before),
                 registry.Snapshot(), result);

  if (spec.blocking != core::BlockingMode::kOff) {
    // Blocking is exact: scoring every cell must select the same links.
    core::MatchOptions dense = options;
    dense.blocking.mode = core::BlockingMode::kOff;
    RepOutput dense_out = RunRep(inputs[0], dense, plain, nullptr, result);
    result.Check(LinkDigest(dense_out.links) == digests[0],
                 "dense scoring selects the blocked links");
  }
}

}  // namespace

void RunBatchPaperPair(const RunConfig& config, RunResult& result) {
  BatchSpec spec;  // PairSpec defaults: the paper's SA/SB proportions.
  spec.pairs = 32;
  spec.f1_floor = 0.27;
  if (config.smoke) {
    spec.pair.source_concepts = 20;
    spec.pair.target_concepts = 10;
    spec.pair.shared_concepts = 5;
  }
  RunBatch(config, spec, result);
}

void RunBatchLargeBlocked(const RunConfig& config, RunResult& result) {
  BatchSpec spec;
  // The most concepts the generator's 264-combination vocabulary allows
  // (source + target - shared <= 264): ~2800 x 2300 elements.
  spec.pair.source_concepts = 240;
  spec.pair.target_concepts = 200;
  spec.pair.shared_concepts = 176;
  spec.pair.disjoint_base_pools = false;
  spec.blocking = core::BlockingMode::kExact;
  spec.pairs = 2;
  spec.f1_floor = 0.55;
  if (config.smoke) {
    spec.pair.source_concepts = 24;
    spec.pair.target_concepts = 20;
    spec.pair.shared_concepts = 16;
    spec.f1_floor = 0.25;
  }
  RunBatch(config, spec, result);
}

}  // namespace harness
