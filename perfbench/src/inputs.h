#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

/// \file inputs.h
/// Seeded, deterministic input generators owned by the benchmark: the
/// expression matrices of the co-expression workloads and the query
/// streams of the serving workloads.  The program under test only ever
/// receives their output, so a change to gsb's own generators or RNG
/// cannot change what the benchmark measures.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bio/expression.h"

namespace perfbench {

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  std::uint64_t below(std::uint64_t bound);  ///< [0, bound)
  double normal();

 private:
  std::uint64_t state_[4];
};

/// Derives an independent seed for one named use of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag,
                          std::uint64_t index = 0);

/// Latent-factor microarray: planted co-regulated modules (power-law
/// size spectrum on [5, max_module_size], the first at the maximum), each
/// member expressing sqrt(rho)*activity + sqrt(1-rho)*noise; other genes
/// are pure noise.  Small modules (<= 10 genes) share some genes.
struct ExpressionSpec {
  std::size_t genes = 0;
  std::size_t samples = 0;
  std::size_t modules = 0;
  std::size_t max_module_size = 25;
  double within_module_corr = 0.9;
  double overlap = 0.10;
};

gsb::bio::ExpressionMatrix generate_expression(const ExpressionSpec& spec,
                                               std::uint64_t seed);
std::uint64_t matrix_digest(const gsb::bio::ExpressionMatrix& matrix);

/// What a query stream may draw operands from: the served graph's order,
/// its vertices by descending degree (Zipf rank 0 = the biggest hub), and
/// its maximal cliques in original labels.
struct StreamContext {
  std::size_t order = 0;
  std::vector<std::uint32_t> popularity;
  std::vector<std::vector<std::uint32_t>> cliques;
  double zipf_exponent = 1.2;
  std::vector<double> vertex_cdf;  ///< filled by prepare()
  std::vector<double> clique_cdf;
  void prepare();
};

enum class StreamKind {
  /// Point lookups (degree, neighbors, cliques-containing,
  /// common-neighbors, in equal shares) on Zipf-drawn vertices plus 1.5%
  /// heavy analytics (kcore-membership, paraclique-expand, top-hubs).
  kZipf,
  /// Set-valued queries (common-neighbors and induced-subgraph in equal
  /// shares, 0.02% cliques-containing) on uniform operands; every
  /// canonical query is distinct within a stream, and streams with
  /// different ids never share one (operand-sum residues partition the
  /// query space).
  kUnique,
};

StreamKind parse_stream_kind(const std::string& name);

/// Share of heavy analytics the Zipf mix aims for, and the accepted
/// ranges the self-tests and the run-time checks hold the streams to.
inline constexpr double kZipfHeavyShare = 0.015;
inline constexpr double kZipfHeavyMin = 0.01;
inline constexpr double kZipfHeavyMax = 0.02;
inline constexpr double kZipfRepeatMin = 0.80;
inline constexpr double kZipfRepeatMax = 0.995;
/// Share of cliques-containing in the unique mix.  A stream sends about
/// 300,000 requests in a 20 s window (60,000/s over 4 connections on a
/// 4-vCPU host), so it uses about 60 of its order / 16 = 250 vertices:
/// the pool lasts up to about four times that rate.
inline constexpr double kUniqueCliquesShare = 0.0002;

/// One deterministic request stream: (kind, context, seed, stream id)
/// fixes every request.  Stream ids partition the unique query space, so
/// ids must be < kStreamPartitions.
class QueryStream {
 public:
  static constexpr std::uint32_t kStreamPartitions = 16;

  QueryStream(StreamKind kind, const StreamContext& context,
              std::uint64_t seed, std::uint32_t stream_id);

  /// Next request line (no newline).
  std::string next();
  /// True when the last request returned by next() is heavy analytics.
  [[nodiscard]] bool last_heavy() const noexcept { return last_heavy_; }

 private:
  std::string next_zipf();
  std::string next_unique();
  std::uint32_t zipf_vertex();
  bool remember(std::uint64_t identity);

  StreamKind kind_;
  const StreamContext& context_;
  Rng rng_;
  std::uint32_t stream_id_;
  bool last_heavy_ = false;
  std::vector<std::uint32_t> clique_pool_;  ///< unique: unused vertices
  std::vector<std::uint64_t> seen_;         ///< unique: open-addressing set
  std::size_t seen_count_ = 0;
};

/// The share checks over the first \p per_stream requests of each of the
/// given streams, merged in round-robin order (how the server sees them).
struct StreamShares {
  std::size_t requests = 0;
  std::size_t distinct = 0;
  std::size_t heavy = 0;
  std::size_t parse_failures = 0;
  [[nodiscard]] double repeat_share() const;
  [[nodiscard]] double heavy_share() const;
};

StreamShares measure_stream_shares(StreamKind kind,
                                   const StreamContext& context,
                                   std::uint64_t seed,
                                   const std::vector<std::uint32_t>& ids,
                                   std::size_t per_stream);

/// Empty when the shares are in the kind's intended range, else why not.
std::string check_stream_shares(StreamKind kind, const StreamShares& shares);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H
