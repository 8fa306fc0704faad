#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/// \file bench.h
/// Workload definitions and the pieces the co-expression and serving
/// workloads share: run options, the outcome being assembled, the
/// pipeline iteration, and the traced per-layer pass.

#include <cstdint>
#include <string>
#include <vector>

#include "bio/expression.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string gsb_binary;  ///< the `gsb` CLI the serving workloads start
  std::string work_dir;    ///< scratch for artifacts, inside the checkout
  std::string trace_out;   ///< Chrome trace path (traced runs)
};

/// What one run reports: the correctness verdict, operation counts and
/// the metric set of its mode.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// One co-expression pipeline configuration.
struct PipelineSpec {
  std::string name;
  ExpressionSpec expression;
  double threshold = 0.0;
  std::size_t threads = 4;
  /// true: tiled out-of-core build -> .gsbg -> mmap; false: in-core.
  bool tiled = false;
  std::size_t tile_rows = 512;
};

PipelineSpec brain_spec();    ///< 12,422 x 64, |rho| >= 0.85, tiled
PipelineSpec modules_spec();  ///< 4,000 x 60, |rho| >= 0.80, in-core

/// The layer each workload's traced run is predicted to be dominated by.
std::string predicted_dominant_layer(const std::string& workload);

/// Served artifacts: graph container, clique stream, clique index.
struct Artifacts {
  std::string gsbg;
  std::string gsbc;
  std::string gsbci;
};

/// Runs the traced pipeline pass for \p spec on \p raw: the layer spans,
/// the 1-thread pass, the cross-build edge check, and .gsbc/.gsbci
/// artifacts under \p dir.  Sets every bio/storage/graph/core/analysis/
/// pipeline/parallel/util per-layer metric and prints the layer table.
Artifacts trace_pipeline_layers(const PipelineSpec& spec,
                                const gsb::bio::ExpressionMatrix& raw,
                                const std::string& dir, SpanLog& log,
                                Outcome& outcome, double* pipeline_s);

/// Builds the serving artifacts from \p raw the way a deployment would:
/// tiled build -> .gsbg, run_analysis streaming cliques to .gsbc, then the
/// .gsbci index.  Spans go to \p log under \p parent.
Artifacts build_serving_artifacts(const PipelineSpec& spec,
                                  const gsb::bio::ExpressionMatrix& raw,
                                  const std::string& dir, SpanLog& log,
                                  std::uint64_t parent);

/// Service-layer per-layer figures over running artifacts; defined in
/// serve_bench.cpp and used by every traced run.
void trace_service_layers(const RunOptions& options, StreamKind kind,
                          const Artifacts& artifacts, SpanLog& log,
                          Outcome& outcome);

void run_pipeline_workload(const RunOptions& options, Outcome& outcome);
void run_serve_workload(const RunOptions& options, Outcome& outcome);

/// Peak resident set of this process in MiB (VmHWM).
double process_peak_rss_mb();

inline constexpr double kMiB = 1024.0 * 1024.0;

/// printf-style rendering of one number.
std::string fmt(const char* format, double value);

/// Writes \p rows as an aligned two-column table to stdout.
void print_table(const std::string& title,
                 const std::vector<std::pair<std::string, std::string>>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
