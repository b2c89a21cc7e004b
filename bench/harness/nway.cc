// nway_vocab: a planner building a comprehensive vocabulary over a dozen
// schema files, as `harmony_match vocab a.sql b.sql ...` does. One rep is
// parse every file -> MatchAndBuildVocabulary (pairs stream into the merge
// while later pairs still match) -> vocabulary CSV -> teardown.
//
// The traced run rotates three rep kinds so each comparison is like for
// like: streamed untraced (the end-to-end path), barriered untraced
// (MatchAllPairs, then AddMatches + Finish), and barriered traced. The two
// untraced kinds give the stream overlap; the two barriered kinds give the
// tracing overhead.

#include <functional>
#include <map>
#include <optional>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "nway/vocabulary_builder.h"
#include "service/state.h"
#include "sql/ddl_exporter.h"
#include "synth/generator.h"

namespace harness {

namespace {

using namespace harmony;
using Span = SpanLog::Span;

constexpr double kThreshold = 0.35;
/// Lowest term purity any seed may produce (20-seed sweep, with margin).
constexpr double kPurityFloor = 0.68;
/// Communities per run (community j uses seed ^ j * golden ratio), so that
/// purity, memory and the median do not hinge on one community's quirks.
constexpr size_t kCommunities = 12;

using Inspect = std::function<void(const nway::ComprehensiveVocabulary&)>;

struct RepOutput {
  double wall_s = 0;
  std::string digest;
};

RepOutput RunRep(const std::vector<std::string>& texts, bool barriered,
                 const core::EngineContext& context, SpanLog* spans,
                 RunResult& result, const Inspect& inspect = nullptr) {
  RepOutput out;
  const double t0 = Now();
  {
    Span rep(spans, "nway.rep");
    std::vector<schema::Schema> schemas;
    {
      Span s(spans, "parse");
      schemas.reserve(texts.size());
      for (size_t i = 0; i < texts.size(); ++i) {
        auto parsed = service::ParseSchemaAuto(texts[i], StringFormat("S%zu", i + 1));
        result.Check(parsed.ok(), "nway input parses");
        if (!parsed.ok()) return out;
        schemas.push_back(std::move(*parsed));
      }
    }
    std::vector<const schema::Schema*> ptrs;
    for (const auto& s : schemas) ptrs.push_back(&s);
    nway::NwayOptions nway_options;
    std::optional<nway::NwayBuildResult> built;
    std::optional<nway::ComprehensiveVocabulary> vocab;
    if (barriered) {
      std::vector<nway::PairwiseMatches> matches;
      {
        Span s(spans, "match");
        matches = nway::MatchAllPairs(ptrs, kThreshold, /*one_to_one=*/true,
                                      {}, context);
      }
      {
        Span s(spans, "merge");
        nway::VocabularyBuilder builder(ptrs, nway_options, context);
        for (const auto& pm : matches) builder.AddMatches(pm);
        vocab.emplace(builder.Finish());
      }
    } else {
      built.emplace(nway::MatchAndBuildVocabulary(
          ptrs, kThreshold, /*one_to_one=*/true, {}, nway_options, context));
    }
    const nway::ComprehensiveVocabulary& v =
        barriered ? *vocab : built->vocabulary;
    std::string csv;
    {
      Span s(spans, "export");
      csv = v.ToCsv();
    }
    if (inspect) inspect(v);
    out.digest = Digest(csv);
    {
      Span s(spans, "teardown");
      built.reset();
      vocab.reset();
      schemas.clear();
    }
  }
  out.wall_s = Now() - t0;
  return out;
}

/// E5's term purity, as counts: of the multi-member terms (`multi`), those
/// whose members all carry one generated semantic key (`pure`).
void CountPureTerms(const nway::ComprehensiveVocabulary& vocab,
                    const synth::NWayResult& generated, size_t& multi,
                    size_t& pure) {
  for (const auto& term : vocab.terms()) {
    if (term.members.size() < 2) continue;
    ++multi;
    std::map<std::string, size_t> keys;
    for (const auto& ref : term.members) {
      const auto& semantics = generated.semantics[ref.schema_index];
      auto it = semantics.find(vocab.schema(ref.schema_index).Path(ref.element));
      if (it != semantics.end()) keys[it->second]++;
    }
    size_t best = 0;
    for (const auto& [key, count] : keys) best = std::max(best, count);
    pure += best == term.members.size();
  }
}

}  // namespace

void RunNwayVocab(const RunConfig& config, RunResult& result) {
  const size_t ncommunities = config.smoke ? 1 : kCommunities;

  // Set-up: generate every community and render each schema as DDL. Later
  // passes, spread over the timed reps, must render the same texts.
  SetupTimes setups(config);
  auto generate = [&] {
    std::pair<std::vector<synth::NWayResult>, std::vector<std::vector<std::string>>>
        out;
    for (size_t j = 0; j < ncommunities; ++j) {
      synth::NWaySpec spec;
      spec.seed = config.seed ^ (j * 0x9e3779b97f4a7c15ull);
      spec.schema_count = config.smoke ? 4 : 12;
      spec.universe_concepts = config.smoke ? 10 : 30;
      spec.concepts_per_schema = config.smoke ? 6 : 18;
      out.first.push_back(synth::GenerateNWay(spec));
      auto& texts = out.second.emplace_back();
      for (const auto& schema : out.first.back().schemas) {
        texts.push_back(sql::ExportDdl(schema));
      }
    }
    return out;
  };
  const auto [generated, texts] = setups.Time(generate);
  size_t lost = 0;
  for (size_t j = 0; j < ncommunities; ++j) {
    for (size_t i = 0; i < texts[j].size(); ++i) {
      auto parsed =
          service::ParseSchemaAuto(texts[j][i], StringFormat("S%zu", i + 1));
      result.Check(parsed.ok(), "nway input parses");
      if (!parsed.ok()) return;
      for (const auto& [path, key] : generated[j].semantics[i]) {
        lost += !parsed->FindByPath(path).ok();
      }
    }
  }
  result.Check(lost == 0, StringFormat("re-import keeps every generated path "
                                       "(%zu lost)", lost));
  ReleaseFreedHeap();
  auto regenerate = [&] {
    result.Check(setups.Time(generate).second == texts,
                 "set-up renders every community identically");
    ReleaseFreedHeap();
  };

  obs::MetricsRegistry registry;
  obs::MetricsRegistry traced_registry;
  obs::MetricsRegistry pool_registry;
  obs::Tracer tracer;
  common::ThreadPool pool(0, core::EngineContext(&pool_registry, &tracer));
  const core::EngineContext plain(&registry, nullptr, &pool);
  const core::EngineContext traced(&traced_registry, &tracer, &pool);
  SpanLog spans(&tracer);
  if (config.traced) tracer.Start();

  // Warm-up: one untimed rep starts the pool threads and grows the heap.
  RunRep(texts[0], false, plain, nullptr, result);

  // Timed reps cycle through the communities, each at least once and one
  // at least twice; a traced run gives each community one rep of every
  // kind in a row. A community's first rep (always streamed and untraced)
  // fixes its vocabulary digest and is scored for purity; every later rep
  // must build the same vocabulary.
  std::vector<std::string> digests(ncommunities);
  size_t multi = 0, pure = 0, terms = 0;
  // walls[kind]: 0 streamed untraced, 1 barriered untraced, 2 barriered traced.
  std::vector<double> walls[3];
  std::vector<double> peak_rss;  // per streamed untraced rep
  const obs::MetricsSnapshot pool_before = pool_registry.Snapshot();
  const double start = Now();
  const size_t min_reps = (config.traced ? 3 : 1) * ncommunities + 1;
  for (size_t rep = 0;
       rep < min_reps || (Now() - start < config.seconds && !config.smoke);
       ++rep) {
    if (setups.Due(start)) regenerate();
    const size_t kind = config.traced ? rep % 3 : 0;
    const size_t j = (config.traced ? rep / 3 : rep) % ncommunities;
    Inspect score;
    if (digests[j].empty()) {
      score = [&](const nway::ComprehensiveVocabulary& vocab) {
        CountPureTerms(vocab, generated[j], multi, pure);
        terms += vocab.terms().size();
      };
    }
    const bool rss = kind == 0 && ResetPeakRss();
    RepOutput out = RunRep(texts[j], kind > 0, kind == 2 ? traced : plain,
                           kind == 2 ? &spans : nullptr, result, score);
    ++result.attempted;
    if (out.wall_s == 0) {
      ++result.failed;
      continue;
    }
    if (digests[j].empty()) digests[j] = out.digest;
    result.Check(out.digest == digests[j],
                 StringFormat("rep %zu builds community %zu's first vocabulary",
                              rep, j));
    walls[kind].push_back(out.wall_s);
    if (rss) peak_rss.push_back(PeakRssMb());
  }
  FinishTrace(tracer, config, result);
  const double purity =
      multi == 0 ? 0.0 : static_cast<double>(pure) / static_cast<double>(multi);
  result.Check(purity >= kPurityFloor,
               StringFormat("term purity %.4f >= floor %.4f", purity,
                            kPurityFloor));
  std::string digest_list;
  for (const auto& d : digests) {
    digest_list += (digest_list.empty() ? "" : ", ") + JsonString(d);
  }
  result.Note("reps", std::to_string(walls[0].size()));
  result.Note("communities", std::to_string(ncommunities));
  result.Note("terms", std::to_string(terms));
  result.Note("terms_digests", "[" + digest_list + "]");

  if (!config.traced) {
    result.Set("latency_p50_ms", Median(walls[0]) * 1e3);
    result.Set("rss_mb", peak_rss.empty() ? PeakRssMb() : Median(peak_rss));
    result.Set("quality", purity);
    result.Set("setup_s", setups.Median());
    return;
  }

  const double n = static_cast<double>(walls[2].size());
  auto self = spans.SelfSeconds("nway.rep");
  auto per_rep_ms = [&](const char* layer) { return self[layer] / n * 1e3; };
  result.Set("parse_ms", per_rep_ms("parse"));
  result.Set("nway.match_ms", per_rep_ms("match"));
  result.Set("nway.merge_ms", per_rep_ms("merge"));
  result.Set("export_ms", per_rep_ms("export"));
  const double gap = self["nway.rep"] / spans.TotalSeconds("nway.rep");
  result.Set("unattributed_pct", gap * 100);
  result.Check(gap <= 0.05,
               StringFormat("nway layers cover the rep (%.1f%% unattributed "
                            "outside parse/match/merge/export/teardown)",
                            gap * 100));
  result.Set("nway.overlap_ms", (Median(walls[1]) - Median(walls[0])) * 1e3);
  result.Set("trace_overhead_pct",
             (Median(walls[2]) / Median(walls[1]) - 1) * 100);

  // Engine work inside the traced reps, from the scoped registry: sums over
  // every pair's engine (CPU time across the pool, not wall time).
  const obs::MetricsSnapshot snap = traced_registry.Snapshot();
  result.Set("preprocess_ms", HistogramSumMs(snap, "engine.preprocess_ns") / n);
  result.Set("kernel_ms", HistogramSumMs(snap, "engine.compute_matrix_ns") / n);
  const double cells = CounterValue(snap, "engine.cells_scored");
  const double pruned = CounterValue(snap, "match.blocking.pruned");
  result.Set("cells_scored", cells / n);
  result.Set("candidate_ratio", cells / (cells + pruned));
  result.Set("nway.pairs_matched", CounterValue(snap, "nway.pairs_matched") / n);
  result.Set("nway.links", CounterValue(snap, "nway.merge.links_absorbed") / n);
  result.Set("nway.terms", CounterValue(snap, "nway.merge.terms") / n);

  SetPoolMetrics(pool_registry.Snapshot().DeltaFrom(pool_before), snap, result);
}

}  // namespace harness
