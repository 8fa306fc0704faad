// Co-expression workloads: normalize -> correlation build -> run_analysis,
// timed end to end, plus the traced per-layer pass every workload runs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "bench.h"
#include "bio/correlation.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "core/bron_kerbosch.h"
#include "core/clique_enumerator.h"
#include "core/maximum_clique.h"
#include "core/parallel_enumerator.h"
#include "graph/transforms.h"
#include "pipeline/overlap.h"
#include "service/clique_index.h"
#include "storage/clique_stream.h"
#include "storage/mapped_graph.h"
#include "util/memory_tracker.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kInitK = 4;
constexpr std::size_t kMinParaclique = 5;
constexpr std::size_t kHubCount = 10;
constexpr int kSetupRepeats = 15;  // a setup takes milliseconds
constexpr std::size_t kBrainMaxModule = 18;
constexpr std::size_t kModulesMaxModule = 20;
constexpr int kReplays = 3;
/// op_tail_ms is this fixed quantile of the run's pipeline times, so a
/// faster change is judged at the same level as its parent.
constexpr double kTailLevel = 0.9;

/// One finished pipeline iteration.  Owns the graph so callers can run
/// checks and layer replays on exactly what was analyzed.
struct PipelineRun {
  gsb::graph::Graph graph;            // in-core builds
  gsb::storage::MappedGraph mapped;   // tiled builds
  gsb::graph::GraphView view;
  gsb::pipeline::AnalysisResult result;
  std::string digest;
  double seconds = 0.0;
  double normalize_s = 0.0;
  double corr_s = 0.0;
  double open_s = 0.0;
  double analysis_s = 0.0;
  std::size_t tiled_peak_bytes = 0;
  std::uintmax_t gsbg_bytes = 0;
};

/// Largest total size the tiled build's scratch directory reaches,
/// sampled from a side thread while the build runs (never during a timed
/// build: the sampler competes with the correlation workers).
class SpillWatcher {
 public:
  explicit SpillWatcher(std::string dir) : dir_(std::move(dir)) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        peak_ = std::max(peak_, total());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  ~SpillWatcher() { finish(); }
  SpillWatcher(const SpillWatcher&) = delete;
  SpillWatcher& operator=(const SpillWatcher&) = delete;

  std::uintmax_t finish() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
    return peak_;
  }

 private:
  std::uintmax_t total() const {
    std::uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      std::error_code size_ec;
      const auto size = entry.file_size(size_ec);
      if (!size_ec) bytes += size;
    }
    return bytes;
  }

  std::string dir_;
  std::atomic<bool> stop_{false};
  std::uintmax_t peak_ = 0;
  std::thread thread_;
};

std::string digest_of(const gsb::graph::GraphView& view,
                      const gsb::pipeline::AnalysisResult& result) {
  std::ostringstream out;
  out << "edges=" << view.num_edges() << " spectrum=";
  for (const auto& [size, count] : result.spectrum.size_histogram) {
    out << size << ':' << count << ',';
  }
  out << " paracliques=";
  for (const auto& p : result.paracliques) out << p.members.size() << ',';
  out << " hubs=";
  for (const auto& h : result.hubs) {
    out << h.vertex << '/' << h.degree << '/' << h.clique_participation << ',';
  }
  return out.str();
}

/// Opens a span when tracing; a no-op otherwise.
std::optional<Scope> maybe_span(SpanLog* log, const char* name,
                                const char* layer, std::uint64_t parent) {
  if (log == nullptr) return std::nullopt;
  return std::optional<Scope>(std::in_place, *log, name, layer, parent);
}

/// normalize -> correlation build -> run_analysis over a copy of \p raw
/// (the copy is made before the clock starts).  Without \p analyze the
/// run stops after the graph is built.
std::unique_ptr<PipelineRun> run_pipeline_once(
    const PipelineSpec& spec, const gsb::bio::ExpressionMatrix& raw,
    const std::string& dir, SpanLog* log, std::uint64_t parent,
    bool analyze = true) {
  auto run = std::make_unique<PipelineRun>();
  gsb::bio::ExpressionMatrix matrix = raw;
  const double start = now_s();
  auto pipeline_span = maybe_span(log, "pipeline", "pipeline", parent);
  const std::uint64_t pid = pipeline_span ? pipeline_span->id() : 0;

  double t = now_s();
  {
    auto span = maybe_span(log, "normalize", "bio", pid);
    gsb::bio::quantile_normalize(matrix);
  }
  run->normalize_s = now_s() - t;

  if (spec.tiled) {
    const std::string path = dir + "/pipeline.gsbg";
    const std::string spill_dir = dir + "/spill";
    fs::create_directories(spill_dir);
    gsb::bio::TiledCorrelationOptions tiled;
    tiled.method = gsb::bio::CorrelationMethod::kSpearman;
    tiled.threshold = spec.threshold;
    tiled.tile_rows = spec.tile_rows;
    tiled.threads = spec.threads;
    tiled.scratch_dir = spill_dir;
    t = now_s();
    {
      auto span = maybe_span(log, "correlation (tiled)", "bio", pid);
      const auto built = gsb::bio::build_correlation_gsbg(matrix, path, tiled);
      run->tiled_peak_bytes = built.peak_tracked_bytes;
    }
    run->corr_s = now_s() - t;
    matrix = gsb::bio::ExpressionMatrix();  // dropped before analysis
    t = now_s();
    {
      auto span = maybe_span(log, "mmap open", "storage", pid);
      run->mapped = gsb::storage::MappedGraph::open(path);
      run->view = run->mapped.view();
    }
    run->open_s = now_s() - t;
    run->gsbg_bytes = run->mapped.file_bytes();
  } else {
    gsb::bio::CorrelationGraphOptions options;
    options.method = gsb::bio::CorrelationMethod::kSpearman;
    options.threshold = spec.threshold;
    options.threads = spec.threads;
    gsb::util::Rng rng(1);  // only used by target-edges estimation
    t = now_s();
    {
      auto span = maybe_span(log, "correlation (in-core)", "bio", pid);
      run->graph = std::move(
          gsb::bio::build_correlation_graph(matrix, options, rng).graph);
      run->view = gsb::graph::GraphView(run->graph);
    }
    run->corr_s = now_s() - t;
  }

  if (!analyze) {
    run->seconds = now_s() - start;
    return run;
  }
  gsb::pipeline::AnalysisOptions analysis;
  analysis.range = {kInitK, 0};
  analysis.threads = spec.threads;
  analysis.min_paraclique = kMinParaclique;
  analysis.hub_count = kHubCount;
  analysis.overlap = false;  // staged, as `gsb pipeline` runs by default
  if (spec.tiled) analysis.prefetch = &run->mapped;
  t = now_s();
  {
    auto span = maybe_span(log, "run_analysis", "pipeline", pid);
    run->result = gsb::pipeline::run_analysis(run->view, analysis);
  }
  run->analysis_s = now_s() - t;
  if (pipeline_span) pipeline_span->stop();
  run->seconds = now_s() - start;
  run->digest = digest_of(run->view, run->result);
  return run;
}

/// Peak spill bytes of an untimed tiled build of \p raw under \p dir.
std::uintmax_t measure_spill_bytes(const PipelineSpec& spec,
                                   const gsb::bio::ExpressionMatrix& raw,
                                   const std::string& dir) {
  gsb::bio::ExpressionMatrix matrix = raw;
  gsb::bio::quantile_normalize(matrix);
  const std::string spill_dir = dir + "/spill";
  fs::create_directories(spill_dir);
  gsb::bio::TiledCorrelationOptions tiled;
  tiled.method = gsb::bio::CorrelationMethod::kSpearman;
  tiled.threshold = spec.threshold;
  tiled.tile_rows = spec.tile_rows;
  tiled.threads = spec.threads;
  tiled.scratch_dir = spill_dir;
  SpillWatcher watcher(spill_dir);
  gsb::bio::build_correlation_gsbg(matrix, dir + "/spill.gsbg", tiled);
  return watcher.finish();
}

/// Exact clique count of size >= Init_K by an independent engine.
std::uint64_t reference_clique_count(const gsb::graph::GraphView& view) {
  gsb::core::CliqueCounter counter;
  gsb::core::degeneracy_bk(view, counter.callback(), {kInitK, 0});
  return counter.total();
}

void check_against_reference(const PipelineRun& run, Outcome& outcome) {
  const std::uint64_t reference = reference_clique_count(run.view);
  if (reference != run.result.enumeration.total_maximal ||
      reference != run.result.spectrum.total) {
    outcome.fail("clique count " +
                 std::to_string(run.result.enumeration.total_maximal) +
                 " != degeneracy_bk count " + std::to_string(reference));
  }
}

/// Bucketed enumeration level names: each bucket exists on every
/// workload (planted modules reach size 25, so levels run past k = 12).
std::string level_bucket(std::size_t k) {
  if (k <= 7) return "k" + std::to_string(k);
  if (k <= 11) return "k8_11";
  return "k12_up";
}

}  // namespace

std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

PipelineSpec brain_spec() {
  PipelineSpec spec;
  spec.name = "coexpr-brain";
  spec.expression = {12422, 64, 12422 / 40, kBrainMaxModule, 0.95, 0.10};
  spec.threshold = 0.85;
  spec.tiled = true;
  return spec;
}

PipelineSpec modules_spec() {
  PipelineSpec spec;
  spec.name = "coexpr-modules";
  spec.expression = {4000, 60, 4000 / 40, kModulesMaxModule, 0.95, 0.10};
  spec.threshold = 0.80;
  spec.tiled = false;
  return spec;
}

std::string predicted_dominant_layer(const std::string& workload) {
  if (workload == "coexpr-brain") return "analysis.paracliques";
  if (workload == "coexpr-modules") return "core.enum";
  if (workload == "serve-zipf") return "transport + cache hits";
  return "cache inserts";
}

double process_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return static_cast<double>(gsb::util::process_peak_rss_bytes()) / kMiB;
}

void print_table(const std::string& title,
                 const std::vector<std::pair<std::string, std::string>>& rows) {
  std::size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.first.size());
  std::printf("%s\n", title.c_str());
  for (const auto& [label, value] : rows) {
    std::printf("  %-*s  %s\n", static_cast<int>(width), label.c_str(),
                value.c_str());
  }
}

Artifacts trace_pipeline_layers(const PipelineSpec& spec,
                                const gsb::bio::ExpressionMatrix& raw,
                                const std::string& dir, SpanLog& log,
                                Outcome& outcome, double* pipeline_s) {
  Metrics& m = outcome.metrics;
  auto& tracker = gsb::util::global_memory_tracker();
  Scope root(log, "layers " + spec.name, "bench");

  // (1) The traced pipeline iteration at the workload's thread count.
  tracker.reset_peak();
  auto run = run_pipeline_once(spec, raw, dir, &log, root.id());
  m.set("util.tracked_peak_mb", static_cast<double>(tracker.peak()) / kMiB,
        "MB");
  *pipeline_s = run->seconds;
  const gsb::graph::GraphView& view = run->view;
  const double n = static_cast<double>(view.order());
  const double pairs = n * (n - 1.0) / 2.0;
  m.set("bio.normalize_ms", run->normalize_s * 1e3, "ms");
  m.set("bio.corr_ms", run->corr_s * 1e3, "ms");
  m.set("bio.corr_pairs_per_s", pairs / run->corr_s, "1/s");
  m.set("bio.corr_gflops",
        2.0 * pairs * static_cast<double>(raw.samples()) / run->corr_s / 1e9,
        "GFLOP/s");
  m.set("bio.edges", static_cast<double>(view.num_edges()), "count");
  m.set("pipeline.analysis_ms", run->analysis_s * 1e3, "ms");
  m.set("parallel.sched_jobs", static_cast<double>(run->result.sched.jobs_run),
        "count");
  m.set("parallel.sched_steals",
        static_cast<double>(run->result.sched.jobs_stolen), "count");

  // (2) Layer replay: each stage run_analysis performs, called on its own,
  // kReplays times; times are medians, counters come from the last round.
  std::vector<double> kcore_t, maxclique_t, enum_t, seed_t, para_t, hubs_t;
  std::map<std::string, std::vector<double>> level_t;
  gsb::core::CliqueCollector collector;
  gsb::core::ParallelEnumerationStats enum_stats;
  std::size_t paracliques = 0;
  for (int round = 0; round < kReplays; ++round) {
    Scope replay(log, "layer replay", "bench", root.id());
    {
      Scope span(log, "kcore", "graph", replay.id());
      const auto core = gsb::graph::kcore_subgraph(view, kInitK - 1);
      kcore_t.push_back(span.stop());
      m.set("graph.kcore_kept_ratio",
            n == 0 ? 0.0 : static_cast<double>(core.graph.order()) / n,
            "ratio");
    }
    {
      Scope span(log, "maximum clique", "core", replay.id());
      const auto best = gsb::core::maximum_clique(view);
      maxclique_t.push_back(span.stop());
      if (best.clique.size() != run->result.maximum.clique.size()) {
        outcome.fail("maximum clique size differs between replay and pipeline");
      }
    }
    {
      collector = gsb::core::CliqueCollector();
      Scope span(log, "enumeration", "core", replay.id());
      gsb::core::ParallelOptions options;
      options.range = {kInitK, 0};
      options.threads = spec.threads;
      enum_stats = gsb::core::enumerate_maximal_cliques_parallel(
          view, collector.callback(), options);
      enum_t.push_back(span.stop());
      seed_t.push_back(enum_stats.base.seed_seconds);
      std::map<std::string, double> level_ms = {
          {"k4", 0.0}, {"k5", 0.0}, {"k6", 0.0},
          {"k7", 0.0}, {"k8_11", 0.0}, {"k12_up", 0.0}};
      for (const auto& level : enum_stats.base.levels) {
        level_ms[level_bucket(level.k)] += level.seconds * 1e3;
      }
      for (const auto& [bucket, ms] : level_ms) level_t[bucket].push_back(ms);
    }
    {
      Scope span(log, "paracliques", "analysis", replay.id());
      gsb::analysis::ParacliqueOptions options;
      paracliques =
          gsb::analysis::extract_all_paracliques(view, kMinParaclique, options)
              .size();
      para_t.push_back(span.stop());
    }
    {
      Scope span(log, "hubs", "analysis", replay.id());
      gsb::analysis::top_hubs(view, collector.cliques(), kHubCount);
      hubs_t.push_back(span.stop());
    }
  }
  const double kcore_s = median(kcore_t);
  const double maxclique_s = median(maxclique_t);
  const double enum_s = median(enum_t);
  const double para_s = median(para_t);
  const double hubs_s = median(hubs_t);
  m.set("graph.kcore_ms", kcore_s * 1e3, "ms");
  m.set("core.maxclique_ms", maxclique_s * 1e3, "ms");
  m.set("core.enum_ms", enum_s * 1e3, "ms");
  m.set("core.enum_seed_ms", median(seed_t) * 1e3, "ms");
  for (const auto& [bucket, ms] : level_t) {
    m.set("core.enum_level_ms." + bucket, median(ms), "ms");
  }
  const auto& stats = enum_stats.base;
  std::uint64_t candidates = 0;
  std::uint64_t pairs_checked = 0;
  for (const auto& level : stats.levels) {
    candidates += level.candidates;
    pairs_checked += level.pairs_checked;
  }
  m.set("core.enum_candidates", static_cast<double>(candidates), "count");
  m.set("core.enum_pairs_checked", static_cast<double>(pairs_checked),
        "count");
  m.set("core.enum_maximal", static_cast<double>(stats.total_maximal),
        "count");
  m.set("core.enum_useful_ratio",
        candidates == 0 ? 0.0
                        : static_cast<double>(stats.total_maximal) /
                              static_cast<double>(candidates),
        "ratio");
  m.set("core.enum_peak_mb",
        static_cast<double>(stats.peak_bytes_actual) / kMiB, "MB");
  const auto& busy = enum_stats.thread_busy_seconds;
  const double busy_mean = mean(busy);
  m.set("core.enum_busy_imbalance",
        busy_mean > 0.0 ? *std::max_element(busy.begin(), busy.end()) /
                              busy_mean
                        : 1.0,
        "ratio");
  m.set("core.enum_transfers", static_cast<double>(enum_stats.total_transfers),
        "count");
  if (collector.cliques().size() != run->result.cliques.size()) {
    outcome.fail("replayed enumeration found " +
                 std::to_string(collector.cliques().size()) +
                 " cliques, the pipeline " +
                 std::to_string(run->result.cliques.size()));
  }
  m.set("analysis.paracliques", static_cast<double>(paracliques), "count");
  m.set("analysis.paraclique_ms", para_s * 1e3, "ms");
  m.set("analysis.hubs_ms", hubs_s * 1e3, "ms");

  // The per-layer table: rows of the blocking path, remainder stated.
  std::vector<std::pair<std::string, double>> rows = {
      {"bio.normalize", run->normalize_s},
      {"bio.corr", run->corr_s}};
  if (spec.tiled) rows.push_back({"storage.mmap_open", run->open_s});
  rows.insert(rows.end(), {{"core.maxclique", maxclique_s},
                           {"core.enum", enum_s},
                           {"analysis.paracliques", para_s},
                           {"analysis.hubs", hubs_s}});
  double attributed = 0.0;
  std::string dominant;
  double dominant_s = -1.0;
  for (const auto& [name, s] : rows) {
    attributed += s;
    if (s > dominant_s) {
      dominant_s = s;
      dominant = name;
    }
  }
  const double unattributed = run->seconds - attributed;
  m.set("pipeline.unattributed_ms", unattributed * 1e3, "ms");
  std::vector<std::pair<std::string, std::string>> table;
  for (const auto& [name, s] : rows) {
    table.push_back({name, fmt("%10.2f ms", s * 1e3) +
                               fmt("  %5.1f%%", 100.0 * s / run->seconds)});
  }
  table.push_back({"  (graph.kcore, inside core.enum)",
                   fmt("%10.2f ms", kcore_s * 1e3)});
  table.push_back({"unattributed",
                   fmt("%10.2f ms", unattributed * 1e3) +
                       fmt("  %5.1f%%", 100.0 * unattributed / run->seconds)});
  table.push_back({"= pipeline (traced)", fmt("%10.2f ms", run->seconds * 1e3)});
  print_table("per-layer table, " + spec.name + " pipeline at " +
                  std::to_string(spec.threads) + " threads:",
              table);
  const std::string predicted = predicted_dominant_layer(spec.name);
  if (spec.name == "coexpr-brain" || spec.name == "coexpr-modules") {
    std::printf("dominant layer: %s (%.1f%%); predicted %s: %s\n",
                dominant.c_str(), 100.0 * dominant_s / run->seconds,
                predicted.c_str(), dominant == predicted ? "held" : "NOT held");
  }

  // (3) The 1-thread pass: same digest, and the speedup baselines.
  {
    Scope one(log, "one-thread pass", "bench", root.id());
    PipelineSpec single = spec;
    single.threads = 1;
    const auto run1 = run_pipeline_once(single, raw, dir + "/one", &log,
                                        one.id());
    if (run1->digest != run->digest) {
      outcome.fail("1-thread digest differs: " + run1->digest + " vs " +
                   run->digest);
    }
    m.set("bio.corr_speedup", run1->corr_s / run->corr_s, "x");
    Scope span(log, "enumeration (sequential)", "core", one.id());
    gsb::core::CliqueCounter counter;
    gsb::core::CliqueEnumeratorOptions options;
    options.range = {kInitK, 0};
    gsb::core::enumerate_maximal_cliques(run1->view, counter.callback(),
                                         options);
    m.set("core.enum_speedup", span.stop() / enum_s, "x");
  }

  // (4) The other correlation build must find the same edges; for
  // in-core workloads its tiled build also supplies the storage figures
  // and the served container.
  Artifacts artifacts;
  {
    Scope check(log, "cross-build check", "bench", root.id());
    PipelineSpec other = spec;
    other.tiled = !spec.tiled;
    auto cross = run_pipeline_once(other, raw, dir + "/cross", &log,
                                   check.id(), /*analyze=*/false);
    if (cross->view.num_edges() != view.num_edges()) {
      outcome.fail("tiled and in-core builds disagree on edges: " +
                   std::to_string(cross->view.num_edges()) + " vs " +
                   std::to_string(view.num_edges()));
    }
    artifacts.gsbg = (spec.tiled ? dir : dir + "/cross") + "/pipeline.gsbg";
    const PipelineRun& tiled = spec.tiled ? *run : *cross;
    m.set("storage.tiled_peak_tracked_mb",
          static_cast<double>(tiled.tiled_peak_bytes) / kMiB, "MB");
    m.set("storage.gsbg_mb", static_cast<double>(tiled.gsbg_bytes) / kMiB,
          "MB");
    m.set("storage.spill_mb",
          static_cast<double>(measure_spill_bytes(spec, raw, dir + "/spill")) /
              kMiB,
          "MB");
    m.set("storage.mmap_open_ms", tiled.open_s * 1e3, "ms");
  }

  // (5) Clique stream and index over the replayed cliques (the tiled
  // container stores original labels: no degree sort).
  artifacts.gsbc = dir + "/pipeline.gsbc";
  artifacts.gsbci = gsb::service::default_index_path(artifacts.gsbc);
  {
    gsb::storage::GsbcWriter writer(artifacts.gsbc, view.order());
    for (auto clique : collector.cliques()) {
      std::sort(clique.begin(), clique.end());
      writer.append(clique);
    }
    writer.close();
    Scope span(log, "gsbci build", "storage", root.id());
    gsb::service::build_clique_index(artifacts.gsbc, artifacts.gsbci);
    m.set("storage.gsbci_build_ms", span.stop() * 1e3, "ms");
  }

  check_against_reference(*run, outcome);
  return artifacts;
}

Artifacts build_serving_artifacts(const PipelineSpec& spec,
                                  const gsb::bio::ExpressionMatrix& raw,
                                  const std::string& dir, SpanLog& log,
                                  std::uint64_t parent) {
  Artifacts artifacts;
  artifacts.gsbg = dir + "/served.gsbg";
  artifacts.gsbc = dir + "/served.gsbc";
  artifacts.gsbci = gsb::service::default_index_path(artifacts.gsbc);
  Scope build(log, "artifact build", "bench", parent);
  gsb::bio::ExpressionMatrix matrix = raw;
  {
    Scope span(log, "normalize", "bio", build.id());
    gsb::bio::quantile_normalize(matrix);
  }
  {
    Scope span(log, "correlation (tiled)", "bio", build.id());
    gsb::bio::TiledCorrelationOptions tiled;
    tiled.method = gsb::bio::CorrelationMethod::kSpearman;
    tiled.threshold = spec.threshold;
    tiled.tile_rows = spec.tile_rows;
    tiled.threads = spec.threads;
    gsb::bio::build_correlation_gsbg(matrix, artifacts.gsbg, tiled);
  }
  matrix = gsb::bio::ExpressionMatrix();
  gsb::storage::MappedGraph mapped;
  {
    Scope span(log, "mmap open", "storage", build.id());
    mapped = gsb::storage::MappedGraph::open(artifacts.gsbg);
  }
  {
    Scope span(log, "run_analysis -> .gsbc", "pipeline", build.id());
    gsb::pipeline::AnalysisOptions analysis;
    analysis.range = {kInitK, 0};
    analysis.threads = spec.threads;
    analysis.min_paraclique = kMinParaclique;
    analysis.hub_count = kHubCount;
    analysis.overlap = false;
    analysis.clique_out = artifacts.gsbc;
    analysis.prefetch = &mapped;
    gsb::pipeline::run_analysis(mapped.view(), analysis);
  }
  Scope span(log, "gsbci build", "storage", build.id());
  gsb::service::build_clique_index(artifacts.gsbc, artifacts.gsbci);
  return artifacts;
}

void run_pipeline_workload(const RunOptions& options, Outcome& outcome) {
  const PipelineSpec spec =
      options.workload == "coexpr-brain" ? brain_spec() : modules_spec();
  SpanLog log(options.trace);
  Scope root(log, options.workload, "bench");

  // Setup, repeated: generate the inputs, store them in gsb's binary
  // expression format and load them back through its row source (the
  // out-of-core input path).  The loaded matrix is what every pipeline
  // run analyzes; it must equal the generated one, on every repeat.
  const std::string input_path = options.work_dir + "/input.gsbx";
  std::vector<double> setup_s;
  gsb::bio::ExpressionMatrix raw;
  std::uint64_t input_digest = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Scope span(log, "setup: inputs", "bench", root.id());
    const auto generated = generate_expression(spec.expression, options.seed);
    gsb::bio::write_expression_binary(generated, input_path);
    const gsb::bio::BinaryFileRowSource source(input_path);
    raw = gsb::bio::ExpressionMatrix(source.genes(), source.samples());
    source.fetch(0, source.genes(), raw.row(0).data());
    setup_s.push_back(span.stop());
    const std::uint64_t digest = matrix_digest(raw);
    if (digest != matrix_digest(generated)) {
      outcome.fail("expression matrix changed in the binary round trip");
    }
    if (i > 0 && digest != input_digest) {
      outcome.fail("input generation is not deterministic");
    }
    input_digest = digest;
  }

  if (options.trace) {
    // Two untraced iterations: a warm-up, then the tracing-overhead
    // baseline the traced iteration is compared with.
    double untraced_s = 0.0;
    for (int i = 0; i < 2; ++i) {
      untraced_s =
          run_pipeline_once(spec, raw, options.work_dir, nullptr, 0)->seconds;
    }
    double traced_s = 0.0;
    const Artifacts artifacts = trace_pipeline_layers(
        spec, raw, options.work_dir + "/traced", log, outcome, &traced_s);
    outcome.attempted += 4;  // 2 untraced, traced, 1-thread
    outcome.metrics.set("obs.trace_overhead_pct",
                        100.0 * (traced_s - untraced_s) / untraced_s, "%");
    trace_service_layers(options, StreamKind::kZipf, artifacts, log, outcome);
    root.stop();
    if (!options.trace_out.empty()) log.write_chrome(options.trace_out);
    return;
  }

  std::vector<double> samples;
  std::string first_digest;
  std::unique_ptr<PipelineRun> last;
  const double start = now_s();
  for (;;) {
    last.reset();  // the previous graph is released before the next build
    ++outcome.attempted;
    try {
      last = run_pipeline_once(spec, raw, options.work_dir, nullptr, 0);
    } catch (const std::exception& error) {
      ++outcome.failed;
      outcome.fail(std::string("pipeline iteration failed: ") + error.what());
      break;
    }
    samples.push_back(last->seconds);
    if (first_digest.empty()) first_digest = last->digest;
    if (last->digest != first_digest) {
      outcome.fail("result digest changed between iterations");
    }
    // The run in flight when the window closes still counts, so
    // coexpr-brain's ~5 s pipelines give four or five samples, not three.
    if (samples.size() >= 3 && now_s() - start >= options.seconds) {
      break;
    }
  }
  const double loop_s = now_s() - start;
  if (last) check_against_reference(*last, outcome);

  Metrics& m = outcome.metrics;
  m.set("setup_s", median(setup_s), "s");
  m.set("op_p50_ms", median(samples) * 1e3, "ms");
  m.set("op_tail_ms", quantile(samples, kTailLevel) * 1e3, "ms");
  m.set("ops_per_s", static_cast<double>(samples.size()) / loop_s, "1/s");
  m.set("peak_rss_mb", process_peak_rss_mb(), "MB");
  std::printf("%s: %zu pipeline runs, median %.1f ms (samples:",
              options.workload.c_str(), samples.size(),
              median(samples) * 1e3);
  for (const double s : samples) std::printf(" %.1f", s * 1e3);
  std::printf(")\n");
}

}  // namespace perfbench
