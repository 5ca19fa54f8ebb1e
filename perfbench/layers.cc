// pb_layers: the benchmark's in-process drivers. Every mode prints one JSON
// object on stdout.
//
//   pb_layers docs --tickets=N
//       The served alarm catalogue, KPI names and retrieval corpus, rebuilt
//       through synth exactly as telekit_serve --index-tickets=N builds
//       them. The verifier checks retrieve/troubleshoot replies against it.
//   pb_layers stream --seed=S --seconds=T
//       The stream_replay workload: an async StreamPipeline over seeded
//       replays, a paced pass between two unpaced ones, verified against a
//       synchronous ServeEngine::Process replay of the same episodes.
//   pb_layers micro --seed=S --requests=FILE --tickets=N
//       Per-layer timings: calls into each layer's public functions with
//       the workload's own request lines (one JSON request per line).
//
// The model is always the one telekit_serve and telekit_streamd build at
// their default --seed, so the benchmark seed changes the inputs only.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/model_zoo.h"
#include "core/service.h"
#include "obs/json.h"
#include "route/ring.h"
#include "serve/embedding_cache.h"
#include "serve/engine.h"
#include "serve/model_host.h"
#include "serve/protocol.h"
#include "stream/pipeline.h"
#include "stream/sessionizer.h"
#include "synth/replay.h"
#include "synth/tickets.h"
#include "tasks/scoring.h"
#include "tensor/compute_pool.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace telekit {
namespace {

using Clock = std::chrono::steady_clock;
using obs::JsonValue;

// Taken during static initialisation, i.e. at process start: the stream
// workload's set-up time is measured from here.
const Clock::time_point kProcessStart = Clock::now();

constexpr uint64_t kModelSeed = 20230401;  // telekit_serve / streamd default
constexpr double kMeanEpisodeGap = 12.0;   // synth::ReplayConfig default

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// telekit_serve's and telekit_streamd's default zoo.
core::ZooConfig ServeZooConfig() {
  core::ZooConfig config;
  config.seed = kModelSeed;
  config.world.num_alarm_types = 48;
  config.world.num_kpi_types = 24;
  config.corpus.num_tele_sentences = 1500;
  config.corpus.num_general_sentences = 1500;
  config.num_episodes = 40;
  config.pretrain.steps = 0;
  config.cache_dir = "";
  return config;
}

std::vector<std::string> AlarmNames(const synth::WorldModel& world) {
  std::vector<std::string> names;
  for (const auto& alarm : world.alarms()) names.push_back(alarm.name);
  return names;
}

std::vector<synth::RetrievalDoc> Corpus(const core::ModelZoo& zoo,
                                        int tickets) {
  synth::TicketConfig config;
  config.num_tickets = tickets;
  config.seed = kModelSeed;  // BuildModelBundle seeds tickets with the zoo's
  return synth::BuildRetrievalCorpus(zoo.world(), config);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Replay stream of `episodes` fault episodes drawn from `rng`.
struct Replay {
  std::vector<synth::StreamEvent> events;
  std::vector<std::string> truth_roots;
};

Replay MakeReplay(const synth::WorldModel& world, int episodes, Rng& rng) {
  synth::LogGenerator log_gen(world, synth::LogConfig{});
  synth::SignalingFlowGenerator signaling_gen(world, synth::SignalingConfig{});
  synth::ReplayConfig config;
  config.num_episodes = episodes;
  config.mean_episode_gap = kMeanEpisodeGap;
  const std::vector<synth::ScheduledEpisode> scheduled =
      synth::ScheduleEpisodes(log_gen, signaling_gen, config, rng);
  Replay replay;
  replay.events = synth::BuildReplayStream(log_gen, signaling_gen, scheduled,
                                           config, rng);
  for (const synth::ScheduledEpisode& s : scheduled) {
    replay.truth_roots.push_back(
        world.alarms()[static_cast<size_t>(s.episode.root_alarm)].name);
  }
  return replay;
}

int ParseIntArg(int argc, char** argv, const std::string& name, int fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return std::atoi(arg.c_str() + prefix.size());
  }
  return fallback;
}

std::string StringArg(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

// ---------------------------------------------------------------- docs ----

int RunDocs(int tickets) {
  core::ModelZoo zoo(ServeZooConfig());
  zoo.BuildData();
  JsonValue out = JsonValue::Object();
  JsonValue alarms = JsonValue::Array();
  for (const std::string& name : AlarmNames(zoo.world())) {
    alarms.Append(JsonValue(name));
  }
  out.Set("alarms", std::move(alarms));
  JsonValue kpis = JsonValue::Array();
  for (const auto& kpi : zoo.world().kpis()) kpis.Append(JsonValue(kpi.name));
  out.Set("kpis", std::move(kpis));
  JsonValue docs = JsonValue::Array();
  for (const synth::RetrievalDoc& doc : Corpus(zoo, tickets)) {
    JsonValue item = JsonValue::Object();
    item.Set("id", JsonValue(doc.id));
    item.Set("kind", JsonValue(doc.kind));
    item.Set("title", JsonValue(doc.title));
    item.Set("text", JsonValue(doc.text));
    JsonValue evidence = JsonValue::Array();
    for (const std::string& alarm : doc.evidence_alarms) {
      evidence.Append(JsonValue(alarm));
    }
    item.Set("evidence", std::move(evidence));
    docs.Append(std::move(item));
  }
  out.Set("docs", std::move(docs));
  std::cout << out.Dump() << "\n";
  return 0;
}

// -------------------------------------------------------------- stream ----

/// Episodes per second offered by the paced pass (SimClock speedup =
/// rate x mean episode gap). Well below the unpaced rate, so detection
/// latency is measured off saturation.
constexpr double kPacedEpisodesPerSec = 200.0;
/// Scheduled episodes per second of --seconds: the paced pass takes ~65 %
/// of the run (windows merge ~22 % of episodes, so 10 s give >1000 detection
/// samples), the two unpaced passes about 25 %.
constexpr double kPacedEpisodesPerRunSec = 130.0;
constexpr double kUnpacedEpisodesPerRunSec = 1200.0;

struct PassResult {
  bool paced = false;
  stream::PipelineSummary summary;
  std::vector<stream::EpisodeVerdict> verdicts;
  stream::HitStats hits;
};

PassResult RunPass(const synth::WorldModel& world, serve::ServeEngine* engine,
                   const Replay& replay, double speedup) {
  stream::PipelineConfig config;
  config.deterministic = false;  // async: Submit, micro-batching, backpressure
  config.speedup = speedup;
  PassResult result;
  stream::StreamPipeline pipeline(world, engine, config);
  result.summary = pipeline.Run(replay.events, [&](stream::EpisodeVerdict v) {
    result.hits.Accumulate(v, replay.truth_roots);
    result.verdicts.push_back(std::move(v));
  });
  return result;
}

bool SameRanking(const serve::Response& got, const serve::Response& want,
                 double tolerance) {
  if (!got.status.ok() || !want.status.ok()) return false;
  if (got.results.size() != want.results.size()) return false;
  for (size_t i = 0; i < got.results.size(); ++i) {
    if (got.results[i].name != want.results[i].name) return false;
    if (std::fabs(got.results[i].score - want.results[i].score) > tolerance) {
      return false;
    }
  }
  return true;
}

int RunStream(uint64_t seed, int seconds) {
  // The stack telekit_streamd builds: zoo, TeleBERT service encoder, one
  // ServeEngine and the three task catalogues. Default engine options,
  // except that the engine is sized to the 4 cores with the pipeline's own
  // thread: 3 workers, one intra-op compute thread each.
  core::ModelZoo zoo(ServeZooConfig());
  zoo.BuildData();
  zoo.BuildPretrained();
  core::TeleBertEncoder encoder(&zoo.telebert());
  core::ServiceEncoder service(&encoder, &zoo.tokenizer(), &zoo.store(),
                               &zoo.normalizer());
  const std::vector<std::string> names = AlarmNames(zoo.world());
  serve::EngineOptions options;
  options.num_workers = 3;
  options.compute_threads = 1;
  serve::ServeEngine engine(&service, options);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    if (!engine.LoadCatalog(op, names).ok()) return 1;
  }
  const double setup_s = SecondsSince(kProcessStart);

  // An unpaced pass warms the engine and its cache, the paced pass measures
  // detection latency off saturation, and a second unpaced pass drives the
  // pipeline into backpressure. Each pass is its own replay.
  Rng rng(seed ^ 0x7374726561dULL);
  const int unpaced_episodes = static_cast<int>(kUnpacedEpisodesPerRunSec * seconds / 2);
  const int paced_episodes = static_cast<int>(kPacedEpisodesPerRunSec * seconds);
  std::vector<PassResult> passes;
  uint64_t unpaced_analysed = 0;
  uint64_t unpaced_requests = 0;
  uint64_t throttled_submits = 0;
  double throttled_ms = 0.0;
  for (const bool paced : {false, true, false}) {
    const Replay replay =
        MakeReplay(zoo.world(), paced ? paced_episodes : unpaced_episodes, rng);
    const uint64_t requests_before = engine.GetStats().requests;
    passes.push_back(RunPass(zoo.world(), &engine, replay,
                             paced ? kPacedEpisodesPerSec * kMeanEpisodeGap
                                   : synth::SimClock::kInfiniteSpeedup));
    passes.back().paced = paced;
    if (paced) continue;
    const stream::PipelineSummary& s = passes.back().summary;
    unpaced_analysed += s.episodes_analysed;
    unpaced_requests += engine.GetStats().requests - requests_before;
    throttled_submits += s.throttled_submits;
    throttled_ms += s.throttled_ms;
  }

  // Verification: async verdicts equal a synchronous, uncached, unbatched
  // Process replay of the same episode text. Every paced verdict and every
  // fourth unpaced one is replayed.
  serve::EngineOptions sync_options;
  sync_options.num_workers = 0;
  sync_options.enable_cache = false;
  serve::ServeEngine reference(&service, sync_options);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    if (!reference.LoadCatalog(op, names).ok()) return 1;
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> detect_ms;
  double paced_rate = 0.0;
  std::vector<const stream::EpisodeVerdict*> verdicts;
  bool conserved = true;
  int judged = 0;
  int hit3_count = 0;
  for (const PassResult& pass : passes) {
    const stream::PipelineSummary& s = pass.summary;
    conserved = conserved && s.episodes_analysed + s.episodes_shed ==
                                 s.sessionizer.episodes_flushed &&
                pass.verdicts.size() == s.sessionizer.episodes_flushed;
    attempted += s.sessionizer.episodes_flushed;
    failed += s.episodes_shed;
    if (pass.paced) {
      paced_rate = s.episodes_analysed / std::max(1e-9, s.wall_seconds);
    }
    judged += pass.hits.judged;
    hit3_count += pass.hits.hit3;
    for (size_t i = 0; i < pass.verdicts.size(); ++i) {
      const stream::EpisodeVerdict& v = pass.verdicts[i];
      if (!v.ok) continue;
      if (pass.paced) detect_ms.push_back(v.detect_ms);
      if (pass.paced || i % 4 == 0) verdicts.push_back(&v);
    }
  }
  // Replayed on four threads (Process is const and thread-safe).
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < verdicts.size(); i += 4) {
        const stream::EpisodeVerdict& v = *verdicts[i];
        serve::Request request;
        request.text = v.query;
        request.top_k = 5;
        const serve::Response* got[] = {&v.rca, &v.eap, &v.fct};
        const serve::TaskOp ops[] = {serve::TaskOp::kRca, serve::TaskOp::kEap,
                                     serve::TaskOp::kFct};
        for (int k = 0; k < 3; ++k) {
          request.op = ops[k];
          if (!SameRanking(*got[k], reference.Process(request), 1e-5)) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double hit3 = judged > 0 ? 1.0 * hit3_count / judged : 0.0;
  const double chance = 3.0 / static_cast<double>(names.size());

  JsonValue out = JsonValue::Object();
  out.Set("setup_s", JsonValue(setup_s));
  out.Set("paced_episodes_per_s", JsonValue(paced_rate));
  out.Set("detect_p50_ms", JsonValue(Quantile(detect_ms, 0.50)));
  out.Set("detect_p99_ms", JsonValue(Quantile(detect_ms, 0.99)));
  out.Set("detect_samples", JsonValue(static_cast<uint64_t>(detect_ms.size())));
  out.Set("peak_rss_mb", JsonValue(PeakRssMb()));
  out.Set("attempted", JsonValue(attempted));
  out.Set("failed", JsonValue(failed));
  out.Set("throttled_submits", JsonValue(throttled_submits));
  out.Set("throttled_ms", JsonValue(throttled_ms));
  out.Set("requests_per_episode",
          JsonValue(unpaced_analysed > 0
                        ? static_cast<double>(unpaced_requests) /
                              static_cast<double>(unpaced_analysed)
                        : 0.0));
  out.Set("rca_hit3", JsonValue(hit3));
  out.Set("rca_hit3_chance", JsonValue(chance));
  JsonValue checks = JsonValue::Object();
  checks.Set("analysed_plus_shed_equals_flushed", JsonValue(conserved));
  checks.Set("async_equals_sync_replay", JsonValue(mismatches.load() == 0));
  checks.Set("verdict_mismatches", JsonValue(mismatches.load()));
  checks.Set("rca_hit3_above_chance", JsonValue(hit3 > chance));
  out.Set("checks", std::move(checks));
  std::cout << out.Dump() << "\n";
  return 0;
}

// --------------------------------------------------------------- micro ----

/// Median over `reps` repetitions of the mean seconds per item of `body`,
/// which processes `items` items per call.
double MedianPerItemUs(int reps, size_t items, const std::function<void()>& body) {
  std::vector<double> samples;
  body();  // warm-up: first-touch allocations and lazy pool start
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    body();
    samples.push_back(SecondsSince(start) * 1e6 / static_cast<double>(items));
  }
  return Quantile(samples, 0.5);
}

/// GFLOP/s of the encoder's projection and FFN GEMMs for a batch of
/// `rows` tokens (d_model x d_model, d_model x ffn, ffn x d_model).
double GemmGflops(int rows, int d_model, int ffn, int threads) {
  tensor::SetComputeThreads(threads);
  tensor::NoGradGuard no_grad;
  Rng rng(0x6e6d6dULL);
  const tensor::Tensor x = tensor::Tensor::Rand({rows, d_model}, rng, -1, 1);
  const tensor::Tensor h = tensor::Tensor::Rand({rows, ffn}, rng, -1, 1);
  const tensor::Tensor w_dd = tensor::Tensor::Rand({d_model, d_model}, rng, -1, 1);
  const tensor::Tensor w_df = tensor::Tensor::Rand({d_model, ffn}, rng, -1, 1);
  const tensor::Tensor w_fd = tensor::Tensor::Rand({ffn, d_model}, rng, -1, 1);
  const double flops = 2.0 * rows * (4.0 * d_model * d_model +
                                     2.0 * d_model * static_cast<double>(ffn));
  const int iters = 50;
  const double us = MedianPerItemUs(7, iters, [&] {
    for (int i = 0; i < iters; ++i) {
      for (int p = 0; p < 4; ++p) tensor::MatMul(x, w_dd);
      tensor::MatMul(x, w_df);
      tensor::MatMul(h, w_fd);
    }
  });
  tensor::SetComputeThreads(1);
  return flops / (us * 1e3);
}

int RunMicro(uint64_t seed, const std::string& requests_path, int tickets) {
  std::vector<std::string> lines;
  {
    std::ifstream in(requests_path);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  if (lines.empty()) {
    std::cerr << "pb_layers micro: no requests in " << requests_path << "\n";
    return 1;
  }

  auto zoo = std::make_shared<core::ModelZoo>(ServeZooConfig());
  serve::BundleIndexOptions index_options;
  index_options.enable = true;
  index_options.num_tickets = tickets;
  // One worker: the timed calls below run on this thread. One intra-op
  // compute thread, as the benchmark's daemons run (tensor.gemm_gflops_4t
  // is the exception).
  serve::EngineOptions engine_options;
  engine_options.num_workers = 1;
  engine_options.compute_threads = 1;
  auto built = serve::BuildModelBundle("telebert", zoo, engine_options,
                                       index_options);
  if (!built.ok()) {
    std::cerr << built.status().ToString() << "\n";
    return 1;
  }
  const serve::ModelBundle& bundle = **built;
  const core::ServiceEncoder& service = *bundle.service;

  JsonValue out = JsonValue::Object();

  // serve: protocol parse and render.
  std::vector<serve::Request> requests(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!serve::ParseRequestLine(lines[i], &requests[i]).ok()) {
      std::cerr << "unparseable request: " << lines[i] << "\n";
      return 1;
    }
  }
  out.Set("serve.parse_us", JsonValue(MedianPerItemUs(9, lines.size(), [&] {
            serve::Request request;
            for (const std::string& line : lines) {
              serve::ParseRequestLine(line, &request);
            }
          })));
  std::vector<serve::Response> responses;
  for (const serve::Request& request : requests) {
    responses.push_back(bundle.engine->Process(request));
  }
  out.Set("serve.serialize_us", JsonValue(MedianPerItemUs(9, lines.size(), [&] {
            for (size_t i = 0; i < requests.size(); ++i) {
              serve::ResponseToJson(requests[i], responses[i], nullptr).Dump();
            }
          })));

  // text: prompt building and tokenization.
  std::vector<std::string> texts;
  for (const serve::Request& request : requests) texts.push_back(request.text);
  out.Set("text.build_input_us", JsonValue(MedianPerItemUs(9, texts.size(), [&] {
            for (const std::string& t : texts) {
              service.BuildInput(t, core::ServiceMode::kEntityNoAttr);
            }
          })));
  std::vector<text::EncodedInput> inputs;
  for (const std::string& t : texts) {
    inputs.push_back(service.BuildInput(t, core::ServiceMode::kEntityNoAttr));
  }

  // serve: embedding cache (a Put and a Get per key).
  serve::EmbeddingCache cache(4096, 8);
  std::vector<serve::CacheKey> keys;
  for (const text::EncodedInput& input : inputs) {
    keys.push_back(serve::EmbeddingCache::HashIds(input.ids, input.length));
  }
  const std::vector<float> vec(static_cast<size_t>(service.dim()), 0.5f);
  out.Set("serve.cache_get_us", JsonValue(MedianPerItemUs(9, 2 * keys.size(), [&] {
            std::vector<float> got;
            for (const serve::CacheKey& key : keys) {
              cache.Put(key, vec);
              cache.Get(key, &got);
            }
          })));

  // core: fp32 forward at batch 1 and 8, int8 forward at batch 8. At most
  // 64 sequences per timed pass keeps the mode within a few seconds.
  const size_t n_enc = std::min<size_t>(64, inputs.size() / 8 * 8);
  std::vector<const text::EncodedInput*> ptrs;
  for (size_t i = 0; i < n_enc; ++i) ptrs.push_back(&inputs[i]);
  auto encode_batches = [&](const core::TextEncoder* int8, size_t batch) {
    for (size_t i = 0; i < ptrs.size(); i += batch) {
      std::vector<const text::EncodedInput*> group(
          ptrs.begin() + static_cast<long>(i),
          ptrs.begin() + static_cast<long>(std::min(ptrs.size(), i + batch)));
      if (int8 != nullptr) {
        int8->EncodeBatch(group);
      } else {
        service.EncodeInputs(group);
      }
    }
  };
  out.Set("core.encode_fp32_us_per_seq_b1",
          JsonValue(MedianPerItemUs(5, ptrs.size(),
                                    [&] { encode_batches(nullptr, 1); })));
  out.Set("core.encode_fp32_us_per_seq_b8",
          JsonValue(MedianPerItemUs(5, ptrs.size(),
                                    [&] { encode_batches(nullptr, 8); })));
  out.Set("core.encode_int8_us_per_seq_b8",
          JsonValue(MedianPerItemUs(5, ptrs.size(), [&] {
            encode_batches(bundle.quantized.get(), 8);
          })));

  // tensor: GEMMs at the encoder's shapes for a batch of 8 sequences.
  double mean_len = 0.0;
  for (const text::EncodedInput& input : inputs) mean_len += input.length;
  mean_len /= static_cast<double>(inputs.size());
  const core::EncoderConfig& enc = zoo->telebert().encoder().config();
  const int rows = std::max(1, static_cast<int>(std::lround(8 * mean_len)));
  out.Set("tensor.gemm_gflops_1t",
          JsonValue(GemmGflops(rows, enc.d_model, enc.ffn_dim, 1)));
  out.Set("tensor.gemm_gflops_4t",
          JsonValue(GemmGflops(rows, enc.d_model, enc.ffn_dim, 4)));

  // tasks + index: scoring and search with the requests' own vectors.
  const std::vector<std::string> names = AlarmNames(zoo->world());
  const std::vector<std::vector<float>> catalogue =
      service.EncodeBatch(names, core::ServiceMode::kEntityNoAttr);
  std::vector<std::vector<float>> queries;
  for (size_t i = 0; i < inputs.size(); i += 8) {
    std::vector<const text::EncodedInput*> group;
    for (size_t j = i; j < std::min(inputs.size(), i + 8); ++j) {
      group.push_back(&inputs[j]);
    }
    for (std::vector<float>& q : service.EncodeInputs(group)) {
      queries.push_back(std::move(q));
    }
  }
  out.Set("tasks.score_us", JsonValue(MedianPerItemUs(9, queries.size(), [&] {
            for (const std::vector<float>& q : queries) {
              tasks::TopKByCosine(q, names, catalogue, 5);
            }
          })));
  const index::CorpusIndex& corpus = *bundle.index;
  std::vector<double> hnsw_us;
  std::vector<double> flat_us;
  double recall = 0.0;
  for (const std::vector<float>& q : queries) {
    Clock::time_point start = Clock::now();
    const std::vector<index::ScoredDoc> approx = corpus.Search(q.data(), 10);
    hnsw_us.push_back(SecondsSince(start) * 1e6);
    start = Clock::now();
    const std::vector<index::ScoredDoc> exact = corpus.SearchExact(q.data(), 10);
    flat_us.push_back(SecondsSince(start) * 1e6);
    std::set<int> truth;
    for (const index::ScoredDoc& d : exact) truth.insert(d.doc_id);
    int found = 0;
    for (const index::ScoredDoc& d : approx) found += truth.count(d.doc_id);
    recall += exact.empty() ? 1.0 : 1.0 * found / static_cast<double>(exact.size());
  }
  out.Set("index.search_us_p50", JsonValue(Quantile(hnsw_us, 0.5)));
  out.Set("index.flat_search_us_p50", JsonValue(Quantile(flat_us, 0.5)));
  out.Set("index.recall_at_10",
          JsonValue(recall / static_cast<double>(queries.size())));

  // stream: sessionizer ingestion over a seeded replay.
  Rng rng(seed ^ 0x6f66666572ULL);
  const Replay replay = MakeReplay(zoo->world(), 200, rng);
  out.Set("stream.offer_us_per_event",
          JsonValue(MedianPerItemUs(7, replay.events.size(), [&] {
            stream::Sessionizer sessionizer(zoo->world(), stream::WindowConfig{});
            std::vector<stream::EpisodeCandidate> flushed;
            for (const synth::StreamEvent& event : replay.events) {
              sessionizer.Offer(event, &flushed);
            }
          })));

  // route: ring walk over the request texts (two replicas, as the fleet).
  route::HashRing ring({"127.0.0.1:1", "127.0.0.1:2"});
  out.Set("route.ring_lookup_us", JsonValue(MedianPerItemUs(9, texts.size(), [&] {
            for (const std::string& t : texts) ring.WalkOrder(t);
          })));

  out.Set("simd_backend", JsonValue(tensor::simd::ActiveBackendName()));
  out.Set("compute_threads", JsonValue(tensor::ComputeThreads()));
  out.Set("index_build_ms", JsonValue(corpus.stats().build_ms));
  std::cout << out.Dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace telekit

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pb_layers docs|stream|micro [--flags]\n";
    return 2;
  }
  const std::string mode = argv[1];
  const uint64_t seed =
      static_cast<uint64_t>(telekit::ParseIntArg(argc, argv, "seed", 1));
  const int tickets = telekit::ParseIntArg(argc, argv, "tickets", 64);
  if (mode == "docs") return telekit::RunDocs(tickets);
  if (mode == "stream") {
    return telekit::RunStream(seed, telekit::ParseIntArg(argc, argv, "seconds", 10));
  }
  if (mode == "micro") {
    return telekit::RunMicro(seed, telekit::StringArg(argc, argv, "requests"),
                             tickets);
  }
  std::cerr << "unknown mode " << mode << "\n";
  return 2;
}
