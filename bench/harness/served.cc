// served_mixed: integration engineers querying a resident harmonyd. An
// in-process ServiceState + Server (4 workers, staged pipeline, engine cache
// capped at 32) serves a synthetic repository; the harness is the client.
//
// Load is an open loop: Poisson arrivals at a fixed rate, sent over 4
// connections. Each latency runs from the request's due time, so a stall
// also charges the requests queued behind it, and how late the generator
// ran is reported. The mix is 70% by-name match (Zipf s=1 over the ordered
// schema pairs, half of them 1:1), 20% keyword search (half fragment
// level), and 10% inline match of a fresh 12-concept pair sent as HSC1 text
// (parse + engine build on every request). The mix, the skew and the cache
// size are assumptions, not taken from a measured request log; cache hit
// ratio and served latency depend on them directly.
//
// Rates are a fixed ladder of multiples of kCalibrationRps. End-to-end
// latency is read at the lowest, 0.4x rung: at higher load, queueing
// multiplies every swing in the host's speed into the latency, and the
// number stops tracking the code. The highest rung meeting the latency
// limit with no failures and no growing backlog is max_rps.

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/selection.h"
#include "harness.h"
#include "repository/metadata_repository.h"
#include "schema/schema_io.h"
#include "service/client.h"
#include "service/server.h"
#include "service/state.h"
#include "synth/generator.h"

namespace harness {

namespace {

using namespace harmony;
using Span = SpanLog::Span;
using Clock = std::chrono::steady_clock;

constexpr double kThreshold = 0.35;
/// Closed-loop throughput of the request mix over 4 connections on the
/// reference host; README.md records how and where it was measured. Never
/// adapted at run time: a change that makes serving slower must not also
/// lower the offered load.
constexpr double kCalibrationRps = 315;
constexpr double kRungs[] = {0.4, 0.6, 0.8, 0.9, 1.0, 1.1};
constexpr size_t kReferenceRung = 0;
constexpr int kConnections = 4;
constexpr double kLatencyLimitS = 0.25;
constexpr double kLagLimitS = 1.0;
constexpr size_t kReferenceMatchSamples = 1000;
/// Distinct inline pairs. A run sends about 400 inline requests, so most
/// pairs are sent at least once and the pooled F1 spans about 200 pairs.
constexpr size_t kInlinePool = 256;
/// Inline replies are the only served matches with generated truth; the
/// lowest pooled F1 any seed may give (20-seed sweep, with margin).
constexpr double kQualityFloor = 0.52;
/// By-name payloads are names and flags (tens of bytes); inline payloads
/// carry two schema texts (kilobytes). The server's request ring tells the
/// two apart by size.
constexpr uint64_t kInlineRequestBytes = 1024;

enum class Kind : uint8_t { kByName, kSearch, kInline };

struct Request {
  Kind kind = Kind::kByName;
  uint32_t index = 0;  ///< pair, query, or inline-pool index
  bool flag = false;   ///< by-name: one_to_one; search: fragments
  double due_s = 0;    ///< offset from the phase start
};

struct InlinePair {
  std::string source_text;
  std::string target_text;
  std::set<std::pair<std::string, std::string>> truth;
};

/// Everything the load generator draws from; built from the seed.
struct Inputs {
  std::vector<schema::Schema> schemas;
  std::vector<std::pair<std::string, std::string>> pairs;  ///< Zipf rank order
  std::vector<double> zipf_cdf;
  std::vector<std::string> queries;
  std::vector<InlinePair> inline_pairs;
};

Inputs MakeInputs(const RunConfig& config) {
  Inputs in;
  synth::RepositorySpec spec;
  spec.seed = config.seed;
  if (config.smoke) {
    spec.families = 2;
    spec.schemas_per_family = 3;
  }
  for (auto& generated : synth::GenerateRepository(spec)) {
    in.schemas.push_back(std::move(generated.schema));
  }
  Rng rng(config.seed ^ 0x5eedf00dull);
  for (const auto& a : in.schemas) {
    for (const auto& b : in.schemas) {
      if (&a != &b) in.pairs.emplace_back(a.name(), b.name());
    }
  }
  rng.Shuffle(in.pairs);
  double total = 0;
  for (size_t rank = 0; rank < in.pairs.size(); ++rank) {
    total += 1.0 / static_cast<double>(rank + 1);
    in.zipf_cdf.push_back(total);
  }
  for (int i = 0; i < 64; ++i) {
    const schema::Schema& s = rng.Choice(in.schemas);
    auto leaves = s.LeafIds();
    in.queries.push_back(s.element(rng.Choice(leaves)).name);
  }
  for (size_t i = 0; i < (config.smoke ? 4 : kInlinePool); ++i) {
    synth::PairSpec p;
    p.seed = rng.Next();
    p.source_concepts = 12;
    p.target_concepts = 12;
    p.shared_concepts = 6;
    synth::GeneratedPair pair = synth::GeneratePair(p);
    InlinePair ip;
    ip.source_text = schema::SerializeSchema(pair.source);
    ip.target_text = schema::SerializeSchema(pair.target);
    for (const auto* list :
         {&pair.truth.element_matches, &pair.truth.concept_matches}) {
      ip.truth.insert(list->begin(), list->end());
    }
    in.inline_pairs.push_back(std::move(ip));
  }
  return in;
}

/// Poisson arrivals at `rate` for at least `min_s` seconds and, when
/// `min_matches` > 0, until that many by-name matches are scheduled.
std::vector<Request> Schedule(const Inputs& in, Rng& rng, double rate,
                              double min_s, size_t min_matches) {
  std::vector<Request> out;
  double t = 0;
  size_t matches = 0;
  while (t < min_s || matches < min_matches) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    Request r;
    r.due_s = t;
    const double u = rng.NextDouble();
    if (u < 0.7) {
      r.kind = Kind::kByName;
      const double x = rng.NextDouble() * in.zipf_cdf.back();
      r.index = static_cast<uint32_t>(
          std::upper_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), x) -
          in.zipf_cdf.begin());
      r.index = std::min<uint32_t>(r.index, in.pairs.size() - 1);
      ++matches;
    } else if (u < 0.9) {
      r.kind = Kind::kSearch;
      r.index = static_cast<uint32_t>(rng.Uniform(0, in.queries.size() - 1));
    } else {
      r.kind = Kind::kInline;
      r.index = static_cast<uint32_t>(rng.Uniform(0, in.inline_pairs.size() - 1));
    }
    r.flag = rng.Bernoulli(0.5);
    out.push_back(r);
  }
  return out;
}

std::string MatchDigest(const std::vector<service::MatchLink>& links) {
  std::string bytes;
  for (const auto& l : links) {
    bytes += l.source_path + '>' + l.target_path + StringFormat("=%a;", l.score);
  }
  return Digest(bytes);
}

std::string SearchDigest(const std::vector<service::SearchResponseHit>& hits) {
  std::string bytes;
  for (const auto& h : hits) {
    bytes += h.schema_name + '.' + h.element_path + StringFormat("=%a;", h.score);
  }
  return Digest(bytes);
}

/// The reply key: every reply to the same key must be identical.
std::string Key(const Inputs& in, const Request& r) {
  switch (r.kind) {
    case Kind::kByName:
      return "match " + in.pairs[r.index].first + ">" +
             in.pairs[r.index].second + (r.flag ? " 1:1" : "");
    case Kind::kSearch:
      return "search " + in.queries[r.index] + (r.flag ? " fragments" : "");
    case Kind::kInline:
      break;
  }
  return StringFormat("inline %u", r.index);
}

struct Sample {
  Kind kind;
  double latency_s;  ///< from due time to decoded reply
  double lag_s;      ///< from due time to send
  bool ok;
};

/// One connection and what its requests produced.
struct Sender {
  std::optional<service::Client> client;
  std::vector<Sample> samples;
  std::map<std::string, std::string> digests;
  std::map<uint32_t, std::vector<service::MatchLink>> inline_replies;
  std::vector<std::string> conflicts;
};

/// Sends one request and checks the reply; the reply digest is recorded
/// after the caller has taken the end time.
bool Execute(Sender& sender, const Inputs& in, const Request& r, SpanLog* spans,
             uint64_t id, service::MatchResponse* match,
             service::SearchResponse* search) {
  Span request(spans, "request", id);
  uint8_t tag = 0;
  std::string payload;
  {
    Span s(spans, "encode", id);
    if (r.kind == Kind::kSearch) {
      tag = static_cast<uint8_t>(service::RequestTag::kSearch);
      payload = service::EncodeSearchRequest({in.queries[r.index], 10, r.flag});
    } else {
      tag = static_cast<uint8_t>(service::RequestTag::kMatch);
      service::MatchRequest m;
      m.threshold = kThreshold;
      if (r.kind == Kind::kByName) {
        m.by_name = true;
        m.one_to_one = r.flag;
        m.source_name = in.pairs[r.index].first;
        m.target_name = in.pairs[r.index].second;
      } else {
        m.source_name = "SA";
        m.target_name = "SB";
        m.source_text = in.inline_pairs[r.index].source_text;
        m.target_text = in.inline_pairs[r.index].target_text;
      }
      payload = service::EncodeMatchRequest(m);
    }
  }
  Result<service::Frame> reply = Status::Internal("not sent");
  {
    Span s(spans, "roundtrip", id);
    reply = sender.client->RoundTrip(tag, payload);
  }
  if (!reply.ok() ||
      reply->tag != static_cast<uint8_t>(service::ResponseTag::kOk)) {
    return false;
  }
  Span s(spans, "decode", id);
  if (r.kind == Kind::kSearch) {
    auto decoded = service::DecodeSearchResponse(reply->payload);
    if (decoded.ok()) *search = std::move(*decoded);
    return decoded.ok();
  }
  auto decoded = service::DecodeMatchResponse(reply->payload);
  if (decoded.ok()) *match = std::move(*decoded);
  return decoded.ok();
}

void Record(Sender& sender, const Inputs& in, const Request& r,
            const service::MatchResponse& match,
            const service::SearchResponse& search) {
  const std::string digest = r.kind == Kind::kSearch ? SearchDigest(search.hits)
                                                     : MatchDigest(match.links);
  auto [it, inserted] = sender.digests.emplace(Key(in, r), digest);
  if (!inserted && it->second != digest) sender.conflicts.push_back(it->first);
  if (r.kind == Kind::kInline && !sender.inline_replies.count(r.index)) {
    sender.inline_replies[r.index] = match.links;
  }
}

/// Runs one open-loop load phase over every connection: each request goes
/// out at its due time, whatever happened to the ones before it.
std::vector<Sample> RunPhase(std::vector<Sender>& senders, const Inputs& in,
                             const std::vector<Request>& schedule,
                             SpanLog* spans, std::atomic<uint64_t>& next_id) {
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  std::vector<size_t> first_sample(senders.size());
  for (size_t c = 0; c < senders.size(); ++c) {
    first_sample[c] = senders[c].samples.size();
    threads.emplace_back([&, c] {
      Sender& sender = senders[c];
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= schedule.size()) break;
        const Request& r = schedule[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(r.due_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        service::MatchResponse match;
        service::SearchResponse search;
        const bool ok =
            Execute(sender, in, r, spans, next_id.fetch_add(1), &match, &search);
        const Clock::time_point end = Clock::now();
        sender.samples.push_back(
            {r.kind, std::chrono::duration<double>(end - due).count(),
             std::chrono::duration<double>(sent - due).count(), ok});
        if (ok) Record(sender, in, r, match, search);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Sample> out;
  for (size_t c = 0; c < senders.size(); ++c) {
    out.insert(out.end(), senders[c].samples.begin() + first_sample[c],
               senders[c].samples.end());
  }
  return out;
}

std::vector<double> Latencies(const std::vector<Sample>& samples, Kind kind) {
  std::vector<double> out;
  for (const auto& s : samples) {
    if (s.kind == kind && s.ok) out.push_back(s.latency_s);
  }
  return out;
}

/// The services the run owns; declared in destruction-safe order (the
/// server drains before the state, registry, tracer and pool go away).
struct Service {
  std::shared_ptr<service::ServiceState> state;
  std::unique_ptr<service::Server> server;
};

Service StartService(const Inputs& in, const core::EngineContext& context,
                     RunResult& result) {
  repository::MetadataRepository repo;
  for (const auto& s : in.schemas) {
    result.Check(repo.RegisterSchema(s).ok(), "repository schema registers");
  }
  service::StateOptions options;
  options.match_options.threshold = kThreshold;
  options.match_options.pipeline.mode = core::PipelineMode::kStaged;
  options.engine_cache_max = 32;
  auto state = service::ServiceState::Build(std::move(repo), options, context);
  result.Check(state.ok(), "service state builds");
  if (!state.ok()) return {};
  Service svc;
  svc.state = std::shared_ptr<service::ServiceState>(std::move(*state));
  service::ServerOptions server_options;
  server_options.num_workers = kConnections;
  server_options.request_log_capacity = size_t{1} << 16;
  auto server = service::Server::Start(svc.state, server_options, context);
  result.Check(server.ok(), "server starts");
  if (server.ok()) svc.server = std::move(*server);
  return svc;
}

/// Recomputes served replies in-process and compares digests: by-name
/// through the resident engine, inline through a fresh engine, search
/// through the resident index. Returns the parse seconds per inline pair.
std::vector<double> Replay(service::ServiceState& state, const Inputs& in,
                           const std::map<std::string, std::string>& digests,
                           const std::vector<Request>& sent,
                           const core::EngineContext& context,
                           RunResult& result) {
  std::vector<double> parse_s(in.inline_pairs.size(), 0.0);
  std::set<std::string> done;
  size_t replayed = 0;
  for (const Request& r : sent) {
    const std::string key = Key(in, r);
    auto it = digests.find(key);
    if (it == digests.end() || !done.insert(key).second) continue;
    if (r.kind == Kind::kByName && replayed >= 64) continue;
    std::string digest;
    if (r.kind == Kind::kSearch) {
      service::SearchResponse resp;
      const auto& index = state.index();
      if (r.flag) {
        for (const auto& hit : index.SearchFragments(in.queries[r.index], 10)) {
          const auto& s = index.schema(hit.schema_index);
          resp.hits.push_back({s.name(), s.Path(hit.element), hit.score});
        }
      } else {
        for (const auto& hit : index.SearchKeywords(in.queries[r.index], 10)) {
          resp.hits.push_back({index.schema(hit.schema_index).name(), "", hit.score});
        }
      }
      digest = SearchDigest(resp.hits);
    } else {
      std::shared_ptr<const core::MatchEngine> engine;
      std::optional<schema::Schema> source;
      std::optional<schema::Schema> target;
      if (r.kind == Kind::kByName) {
        ++replayed;
        auto found = state.EngineFor(in.pairs[r.index].first,
                                     in.pairs[r.index].second);
        result.Check(found.ok(), "replay finds the resident engine");
        if (!found.ok()) continue;
        engine = *found;
      } else {
        const double t0 = Now();
        auto a = service::ParseSchemaAuto(in.inline_pairs[r.index].source_text, "SA");
        auto b = service::ParseSchemaAuto(in.inline_pairs[r.index].target_text, "SB");
        parse_s[r.index] = Now() - t0;
        result.Check(a.ok() && b.ok(), "inline schemata parse");
        if (!a.ok() || !b.ok()) continue;
        source.emplace(std::move(*a));
        target.emplace(std::move(*b));
        engine = std::make_shared<const core::MatchEngine>(
            *source, *target, state.options().match_options, context);
      }
      const core::MatchMatrix matrix = engine->ComputeMatrixFor(kThreshold);
      const bool one_to_one = r.kind == Kind::kByName && r.flag;
      const auto links =
          one_to_one ? core::SelectGreedyOneToOne(matrix, kThreshold, context)
                     : core::SelectByThreshold(matrix, kThreshold, context);
      std::vector<service::MatchLink> rendered;
      for (const auto& l : links) {
        rendered.push_back({engine->source().Path(l.source),
                            engine->target().Path(l.target), l.score});
      }
      digest = MatchDigest(rendered);
    }
    result.Check(digest == it->second, "served reply equals in-process: " + key);
  }
  result.Note("replayed_replies", std::to_string(done.size()));
  return parse_s;
}

/// Pooled F1 of the first inline reply per pool entry against its truth.
double InlineF1(const Inputs& in,
                const std::map<uint32_t, std::vector<service::MatchLink>>& replies) {
  size_t selected = 0, truth = 0, hits = 0;
  for (const auto& [index, links] : replies) {
    const auto& expected = in.inline_pairs[index].truth;
    selected += links.size();
    truth += expected.size();
    for (const auto& l : links) hits += expected.count({l.source_path, l.target_path});
  }
  return F1(selected, truth, hits);
}

}  // namespace

void RunServedMixed(const RunConfig& config, RunResult& result) {
  const Inputs in = MakeInputs(config);

  obs::MetricsRegistry registry;
  obs::MetricsRegistry pool_registry;
  obs::MetricsRegistry replay_registry;
  obs::Tracer tracer;
  common::ThreadPool pool(0, core::EngineContext(&pool_registry, &tracer));
  const core::EngineContext context(&registry, &tracer, &pool);
  SpanLog spans(&tracer);

  // Set-up: build the resident state (search index + staged N-way
  // vocabulary) and start the server, several times for a stable median;
  // the last one serves the load.
  std::vector<double> setups;
  Service svc;
  for (int i = 0; i < (config.smoke ? 1 : 5); ++i) {
    svc = {};
    const double t0 = Now();
    svc = StartService(in, context, result);
    setups.push_back(Now() - t0);
    if (!svc.server) return;
  }

  std::vector<Sender> senders(kConnections);
  for (auto& s : senders) {
    auto client = service::Client::Connect("127.0.0.1", svc.server->port(),
                                           size_t{64} << 20);
    result.Check(client.ok(), "client connects");
    if (!client.ok()) return;
    s.client.emplace(std::move(*client));
  }

  Rng rng(config.seed ^ 0x10adull);
  std::atomic<uint64_t> next_id{1};
  std::vector<Request> sent;  // every request of every phase, in order
  std::vector<Request> last;  // the latest phase's requests
  auto run = [&](double rate, double min_s, size_t min_matches, SpanLog* log) {
    last = Schedule(in, rng, rate, min_s, min_matches);
    sent.insert(sent.end(), last.begin(), last.end());
    return RunPhase(senders, in, last, log, next_id);
  };
  const double budget = config.smoke ? 1.0 : config.seconds;
  const size_t reference_matches = config.smoke ? 20 : kReferenceMatchSamples;

  std::vector<Sample> reference;
  obs::MetricsSnapshot traced_delta;
  uint64_t server_first_id = 0;  // first server request id of the traced half
  std::vector<Sample> traced_samples;
  double rss_mb = 0;
  // The engine cache starts cold; fill it before anything is measured.
  const double reference_rate = kRungs[kReferenceRung] * kCalibrationRps;
  run(reference_rate, 0.08 * budget, 0, nullptr);
  if (!config.traced) {
    // The ladder. The reference rung gets 60% of the budget (and at least
    // the match samples a p99 needs), so its median averages over the
    // host's slower swings; the other rungs share the rest.
    std::string rungs = "[";
    double max_rps = 0;
    for (size_t k = 0; k < std::size(kRungs); ++k) {
      const double rate = kRungs[k] * kCalibrationRps;
      const bool is_reference = k == kReferenceRung;
      const double t0 = Now();
      auto samples =
          run(rate, budget * (is_reference ? 0.6 : 0.06),
              is_reference ? reference_matches : 0, nullptr);
      const double duration = Now() - t0;
      if (is_reference) {
        // Memory is what the daemon keeps resident once the reference rung
        // has filled its engine cache, with the heap its request threads
        // freed handed back. A peak is no use here: how much freed heap each
        // thread's arena keeps moved the same seed's peak by 9%.
        ReleaseFreedHeap();
        rss_mb = ResidentMb();
      }
      std::vector<double> all;
      size_t failed = 0;
      for (const auto& s : samples) {
        all.push_back(s.latency_s);
        failed += !s.ok;
      }
      // Backlog at the end of the rung: the lag of its last tenth.
      std::vector<double> tail_lag;
      for (size_t i = samples.size() * 9 / 10; i < samples.size(); ++i) {
        tail_lag.push_back(samples[i].lag_s);
      }
      const double p99 = Quantile(all, 0.99);
      const double end_lag = Median(tail_lag);
      const bool pass = failed == 0 && p99 <= kLatencyLimitS && end_lag <= kLagLimitS;
      if (pass) max_rps = rate;
      rungs += StringFormat(
          "%s{\"rate\": %.1f, \"attempted\": %zu, \"succeeded\": %zu, "
          "\"failed\": %zu, \"p99_ms\": %.3f, \"end_lag_ms\": %.3f, "
          "\"seconds\": %.2f, \"meets_limit\": %s}",
          k ? ", " : "", rate, samples.size(), samples.size() - failed, failed,
          p99 * 1e3, end_lag * 1e3, duration, pass ? "true" : "false");
      if (is_reference) reference = std::move(samples);
    }
    result.Note("rungs", rungs + "]");
    result.Set("served.max_rps", max_rps);
  } else {
    // The reference rung twice: untraced, then traced.
    reference = run(reference_rate, 0.45 * budget, 0, nullptr);
    const obs::MetricsSnapshot before = registry.Snapshot();
    // Every earlier request has completed, so later ids are the traced half.
    for (const auto& e : svc.server->RecentRequests()) {
      server_first_id = std::max(server_first_id, e.id + 1);
    }
    tracer.Start();
    traced_samples = run(reference_rate, 0.45 * budget, 0, &spans);
    FinishTrace(tracer, config, result);
    traced_delta = registry.Snapshot().DeltaFrom(before);
  }
  for (const auto& sender : senders) {
    for (const auto& s : sender.samples) {
      ++result.attempted;
      result.failed += !s.ok;
    }
  }

  // Every reply to one key must match, and a sample must match an
  // in-process recomputation.
  std::map<std::string, std::string> digests;
  std::map<uint32_t, std::vector<service::MatchLink>> inline_replies;
  for (auto& s : senders) {
    for (const auto& key : s.conflicts) result.Check(false, "replies agree: " + key);
    for (const auto& [key, digest] : s.digests) {
      auto [it, inserted] = digests.emplace(key, digest);
      result.Check(inserted || it->second == digest, "replies agree: " + key);
    }
    inline_replies.insert(s.inline_replies.begin(), s.inline_replies.end());
  }
  const service::Server::Counters counters = svc.server->CountersNow();
  const core::EngineContext replay_context(&replay_registry, nullptr, &pool);
  const std::vector<double> parse_s =
      Replay(*svc.state, in, digests, sent, replay_context, result);
  const double quality = InlineF1(in, inline_replies);
  result.Check(quality >= kQualityFloor,
               StringFormat("inline f1 %.4f >= floor %.4f", quality, kQualityFloor));

  if (!config.traced) {
    const auto match = Latencies(reference, Kind::kByName);
    result.Set("latency_p50_ms", Median(match) * 1e3);
    result.Set("served.match_p99_ms", Quantile(match, 0.99) * 1e3);
    result.Set("served.inline_p99_ms",
               Quantile(Latencies(reference, Kind::kInline), 0.99) * 1e3);
    result.Set("served.search_p99_ms",
               Quantile(Latencies(reference, Kind::kSearch), 0.99) * 1e3);
    result.Set("quality", quality);
    result.Set("rss_mb", rss_mb);
    result.Set("setup_s", Median(setups));
    result.Note("reference_match_samples", std::to_string(match.size()));
    return;
  }

  // --- Per-layer view of the traced half.
  const auto base = Latencies(reference, Kind::kByName);
  const auto traced_match = Latencies(traced_samples, Kind::kByName);
  result.Set("trace_overhead_pct", (Median(traced_match) / Median(base) - 1) * 100);

  size_t requests = 0;
  const double request_s = spans.TotalSeconds("request", &requests);
  const double nreq = static_cast<double>(requests);
  const double encode_s = spans.TotalSeconds("encode");
  const double decode_s = spans.TotalSeconds("decode");
  const double roundtrip_s = spans.TotalSeconds("roundtrip");

  // The server's view of the same requests, from its request ring.
  std::vector<double> queue, handler_match, handler_inline, handler_search;
  double server_total = 0, write_sum = 0;
  size_t ring_requests = 0;
  for (const auto& e : svc.server->RecentRequests()) {
    if (e.id < server_first_id) continue;
    ++ring_requests;
    server_total += static_cast<double>(e.total_ns) * 1e-9;
    // The ring has no write time of its own: the reply write is what the
    // total leaves after the queue wait and the handler.
    write_sum += (static_cast<double>(e.total_ns) -
                  static_cast<double>(e.queue_wait_ns + e.handler_ns)) * 1e-9;
    queue.push_back(static_cast<double>(e.queue_wait_ns) * 1e-9);
    const double h = static_cast<double>(e.handler_ns) * 1e-9;
    if (std::string(e.family) == "search") {
      handler_search.push_back(h);
    } else if (e.request_bytes > kInlineRequestBytes) {
      handler_inline.push_back(h);
    } else {
      handler_match.push_back(h);
    }
  }
  result.Check(ring_requests == requests,
               StringFormat("server ring holds every traced request (%zu of %zu)",
                            ring_requests, requests));
  result.Set("service.encode_us", encode_s / nreq * 1e6);
  result.Set("service.decode_us", decode_s / nreq * 1e6);
  result.Set("service.net_us", (roundtrip_s - server_total) / nreq * 1e6);
  result.Set("export_ms", (encode_s + decode_s) / nreq * 1e3);
  result.Set("service.queue_wait_p50_ms", Median(queue) * 1e3);
  result.Set("service.queue_wait_p99_ms", Quantile(queue, 0.99) * 1e3);
  result.Set("service.reply_write_us", write_sum / nreq * 1e6);
  result.Set("service.handler_match_p50_ms", Median(handler_match) * 1e3);
  result.Set("service.handler_match_p99_ms", Quantile(handler_match, 0.99) * 1e3);
  result.Set("service.handler_inline_p99_ms", Quantile(handler_inline, 0.99) * 1e3);
  result.Set("service.handler_search_p99_ms", Quantile(handler_search, 0.99) * 1e3);

  // Layer sum: client latency = encode + net + server total + decode. The
  // server side has no check: its write time is derived from the total.
  const double client_gap = 1 - (encode_s + roundtrip_s + decode_s) / request_s;
  result.Set("unattributed_pct", client_gap * 100);
  result.Check(std::abs(client_gap) <= 0.05,
               StringFormat("client latency = encode + net + server + decode "
                            "(%.1f%% unattributed)", client_gap * 100));

  // Engine layers inside the traced half, from the server's registry.
  size_t inline_sent = 0, by_name_sent = 0;
  double parse_total = 0;
  for (const Request& r : last) {
    if (r.kind == Kind::kInline) {
      ++inline_sent;
      parse_total += parse_s[r.index];
    }
    by_name_sent += r.kind == Kind::kByName;
  }
  const double matches = static_cast<double>(inline_sent + by_name_sent);
  double builds = 0;
  const double preprocess_ms =
      HistogramSumMs(traced_delta, "engine.preprocess_ns", &builds);
  result.Set("parse_ms", parse_total / matches * 1e3);
  result.Set("preprocess_ms", preprocess_ms / matches);
  result.Set("kernel_ms", HistogramSumMs(traced_delta, "engine.compute_matrix_ns") / matches);
  const double cells = CounterValue(traced_delta, "engine.cells_scored");
  const double candidates = CounterValue(traced_delta, "match.blocking.candidates");
  const double pruned = CounterValue(traced_delta, "match.blocking.pruned");
  result.Set("cells_scored", cells / matches);
  result.Set("candidate_ratio", candidates / (candidates + pruned));
  const double misses = std::max(0.0, builds - static_cast<double>(inline_sent));
  result.Set("service.engine_builds", misses);
  result.Set("service.engine_cache_hit_ratio",
             by_name_sent == 0 ? 0.0 : 1 - misses / static_cast<double>(by_name_sent));
  result.Set("service.engine_evictions",
             CounterValue(traced_delta, "service.engine_cache.evictions"));
  result.Set("service.engine_build_ms", builds == 0 ? 0.0 : preprocess_ms / builds);
  for (const auto& [metric, histogram] :
       {std::pair{"core.stage_retrieve_ms", "match.pipeline.retrieve_ns"},
        std::pair{"core.stage_rank_ms", "match.pipeline.rank_ns"},
        std::pair{"core.stage_rerank_ms", "match.pipeline.rerank_ns"}}) {
    double count = 0;
    const double sum = HistogramSumMs(traced_delta, histogram, &count);
    result.Set(metric, count == 0 ? 0.0 : sum / count);
  }
  std::vector<double> lag;
  for (const auto& s : traced_samples) lag.push_back(s.lag_s);
  result.Set("service.gen_lag_ms", Median(lag) * 1e3);
  result.Set("service.rejected", static_cast<double>(counters.rejected));
  result.Set("service.protocol_errors", static_cast<double>(counters.protocol_errors));
}

}  // namespace harness
