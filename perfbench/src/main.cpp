// perfbench: runs one benchmark workload and prints the result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --gsb PATH/TO/gsb --work-dir DIR [--trace-out FILE]
//   perfbench --selftest
//
// The last stdout line is the JSON result: correct, attempted, failed and
// the metrics of the mode (end-to-end untraced, per-layer traced).

#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "inputs.h"

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"coexpr-brain", "coexpr-modules",
                                  "serve-zipf", "serve-unique"};

/// A synthetic context shaped like the served graphs, for the self-tests.
StreamContext selftest_context() {
  StreamContext context;
  context.order = 4000;
  Rng rng(99);
  for (std::uint32_t v = 0; v < context.order; ++v) {
    context.popularity.push_back(v);
  }
  for (std::size_t i = context.order; i > 1; --i) {
    std::swap(context.popularity[i - 1], context.popularity[rng.below(i)]);
  }
  for (int c = 0; c < 150; ++c) {
    std::vector<std::uint32_t> clique;
    for (std::uint32_t v = 0; v < 4 + rng.below(8); ++v) {
      clique.push_back(static_cast<std::uint32_t>(rng.below(context.order)));
    }
    context.cliques.push_back(clique);
  }
  context.prepare();
  return context;
}

int selftest() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  const ExpressionSpec spec = modules_spec().expression;
  check(matrix_digest(generate_expression(spec, 7)) ==
            matrix_digest(generate_expression(spec, 7)),
        "expression: same seed gives the same matrix");
  check(matrix_digest(generate_expression(spec, 7)) !=
            matrix_digest(generate_expression(spec, 8)),
        "expression: another seed gives another matrix");

  const StreamContext context = selftest_context();
  for (const StreamKind kind : {StreamKind::kZipf, StreamKind::kUnique}) {
    const std::string name = kind == StreamKind::kZipf ? "zipf" : "unique";
    QueryStream a(kind, context, 11, 0);
    QueryStream b(kind, context, 11, 0);
    QueryStream c(kind, context, 12, 0);
    QueryStream d(kind, context, 11, 1);
    bool same = true;
    bool differs_seed = false;
    bool differs_id = false;
    for (int i = 0; i < 20000; ++i) {
      const std::string line = a.next();
      same = same && line == b.next();
      differs_seed = differs_seed || line != c.next();
      differs_id = differs_id || line != d.next();
    }
    check(same, name + ": same seed and id give the same stream");
    check(differs_seed, name + ": another seed gives another stream");
    check(differs_id, name + ": another stream id gives another stream");
    const StreamShares shares =
        measure_stream_shares(kind, context, 11, {0, 1, 2, 3}, 25000);
    check(shares.parse_failures == 0, name + ": every query parses");
    const std::string problem = check_stream_shares(kind, shares);
    check(problem.empty(),
          name + ": repeat_share " + std::to_string(shares.repeat_share()) +
              ", heavy_share " + std::to_string(shares.heavy_share()) +
              (problem.empty() ? " in range" : " — " + problem));
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad argument " + key);
    key = key.substr(2);
    if (key == "selftest") {
      args.insert_or_assign(key, std::string("1"));
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("--" + key + " needs a value");
    args.insert_or_assign(key, std::string(argv[++i]));
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    if (args.count("selftest")) return selftest();
    for (const char* required : {"workload", "seed", "seconds", "trace", "gsb",
                                 "work-dir"}) {
      if (!args.count(required)) {
        throw std::invalid_argument(std::string("missing --") + required);
      }
    }
    RunOptions options;
    options.workload = args.at("workload");
    options.seed = std::stoull(args.at("seed"));
    options.seconds = std::stod(args.at("seconds"));
    options.trace = args.at("trace") == "1";
    options.gsb_binary = args.at("gsb");
    options.work_dir = args.at("work-dir");
    if (args.count("trace-out")) options.trace_out = args.at("trace-out");
    bool known = false;
    for (const char* name : kWorkloads) known = known || options.workload == name;
    if (!known) throw std::invalid_argument("unknown workload " + options.workload);
    std::filesystem::create_directories(options.work_dir);

    Outcome outcome;
    if (options.workload.rfind("coexpr-", 0) == 0) {
      run_pipeline_workload(options, outcome);
    } else {
      run_serve_workload(options, outcome);
    }
    for (const auto& problem : outcome.problems) {
      std::printf("CHECK FAILED: %s\n", problem.c_str());
    }
    if (outcome.attempted == 0) outcome.attempted = 1;
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        outcome.correct ? "true" : "false",
        static_cast<unsigned long long>(outcome.attempted),
        static_cast<unsigned long long>(outcome.failed),
        outcome.metrics.json().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
