#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "service/query.h"
#include "trace.h"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Index of the first cdf entry >= u (cdf ends at 1).
std::size_t sample_cdf(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

std::vector<double> zipf_cdf(std::size_t n, double exponent) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

void append_id(std::string& out, std::uint64_t id) {
  out += ' ';
  out += std::to_string(id);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& word : state_) word = splitmix64(seed);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Lemire's multiply-shift; the bias at these bounds is far below 2^-40.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double Rng::normal() {
  // Box-Muller; u1 is kept away from 0 so the log is finite.
  const double u1 = (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag,
                          std::uint64_t index) {
  std::uint64_t x = fnv1a(tag.data(), tag.size(), seed ^ 0x6a09e667f3bcc909ull);
  x ^= index * 0x9e3779b97f4a7c15ull;
  return splitmix64(x);
}

gsb::bio::ExpressionMatrix generate_expression(const ExpressionSpec& spec,
                                               std::uint64_t seed) {
  Rng rng(derive_seed(seed, "expression"));
  gsb::bio::ExpressionMatrix matrix(spec.genes, spec.samples);

  // Module sizes follow s^-2 on [5, max], assigned by quantile rather than
  // drawn, so every seed plants the same size spectrum (largest first)
  // and run cost does not swing with how many big modules a seed draws.
  constexpr std::size_t kMinSize = 5;
  const std::size_t kMaxSize = spec.max_module_size;
  std::vector<double> size_cdf;
  double total = 0.0;
  for (std::size_t s = kMinSize; s <= kMaxSize; ++s) {
    total += 1.0 / static_cast<double>(s * s);
    size_cdf.push_back(total);
  }
  for (double& c : size_cdf) c /= total;
  const auto module_size = [&](std::size_t m) {
    if (m == 0) return kMaxSize;
    const double q = 1.0 - (static_cast<double>(m) + 0.5) /
                               static_cast<double>(spec.modules);
    return kMinSize + sample_cdf(size_cdf, q);
  };

  std::vector<std::vector<std::uint32_t>> gene_modules(spec.genes);
  constexpr std::size_t kSharingMaxSize = 10;
  std::vector<std::uint32_t> shareable;  // genes of small modules
  std::vector<unsigned char> is_used(spec.genes, 0);
  for (std::size_t m = 0; m < spec.modules; ++m) {
    const std::size_t size = module_size(m);
    // Only small modules share genes, and only with each other: a shared
    // gene mixes two activities and drops out of both near-cliques, so
    // sharing into a big module would shrink it by a random amount — and
    // enumeration cost doubles with every member a big near-clique keeps.
    const bool small = size <= kSharingMaxSize;
    std::vector<std::uint32_t> members;
    std::size_t attempts = 0;
    while (members.size() < std::min(size, spec.genes) &&
           attempts++ < 50 * size + 200) {
      std::uint32_t g;
      if (small && !shareable.empty() && rng.uniform() < spec.overlap) {
        g = shareable[rng.below(shareable.size())];
      } else {
        g = static_cast<std::uint32_t>(rng.below(spec.genes));
        if (is_used[g]) continue;
      }
      if (std::find(members.begin(), members.end(), g) != members.end()) {
        continue;
      }
      members.push_back(g);
    }
    for (const std::uint32_t g : members) {
      gene_modules[g].push_back(static_cast<std::uint32_t>(m));
      if (!is_used[g]) {
        is_used[g] = 1;
        if (small) shareable.push_back(g);
      }
    }
  }

  std::vector<double> activity(spec.modules * spec.samples);
  for (double& a : activity) a = rng.normal();

  const double load = std::sqrt(spec.within_module_corr);
  const double noise = std::sqrt(1.0 - spec.within_module_corr);
  for (std::size_t g = 0; g < spec.genes; ++g) {
    const double scale = 1.0 + 0.3 * (2.0 * rng.uniform() - 1.0);
    const auto& mods = gene_modules[g];
    const double norm =
        mods.empty() ? 0.0 : 1.0 / std::sqrt(static_cast<double>(mods.size()));
    for (std::size_t s = 0; s < spec.samples; ++s) {
      double signal = 0.0;
      for (const std::uint32_t m : mods) signal += activity[m * spec.samples + s];
      const double value = mods.empty()
                               ? rng.normal()
                               : load * signal * norm + noise * rng.normal();
      matrix.at(g, s) = 8.0 + scale * value;
    }
  }
  return matrix;
}

std::uint64_t matrix_digest(const gsb::bio::ExpressionMatrix& matrix) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    const auto row = matrix.row(g);
    hash = fnv1a(row.data(), row.size_bytes(), hash);
  }
  return hash;
}

void StreamContext::prepare() {
  vertex_cdf = zipf_cdf(popularity.size(), zipf_exponent);
  clique_cdf = cliques.empty() ? std::vector<double>{}
                               : zipf_cdf(cliques.size(), zipf_exponent);
}

StreamKind parse_stream_kind(const std::string& name) {
  if (name == "zipf") return StreamKind::kZipf;
  if (name == "unique") return StreamKind::kUnique;
  throw std::invalid_argument("unknown stream kind '" + name + "'");
}

QueryStream::QueryStream(StreamKind kind, const StreamContext& context,
                         std::uint64_t seed, std::uint32_t stream_id)
    : kind_(kind),
      context_(context),
      rng_(derive_seed(seed, kind == StreamKind::kZipf ? "zipf" : "unique",
                       stream_id)),
      stream_id_(stream_id) {
  if (stream_id >= kStreamPartitions) {
    throw std::invalid_argument("stream id out of range");
  }
  if (context.order < 2 * kStreamPartitions) {
    throw std::invalid_argument("graph too small for query streams");
  }
  if (kind == StreamKind::kUnique) {
    for (std::uint32_t v = stream_id_; v < context.order;
         v += kStreamPartitions) {
      clique_pool_.push_back(v);
    }
    for (std::size_t i = clique_pool_.size(); i > 1; --i) {
      std::swap(clique_pool_[i - 1], clique_pool_[rng_.below(i)]);
    }
    seen_.assign(1 << 16, 0);
  }
}

std::string QueryStream::next() {
  return kind_ == StreamKind::kZipf ? next_zipf() : next_unique();
}

std::uint32_t QueryStream::zipf_vertex() {
  return context_.popularity[sample_cdf(context_.vertex_cdf, rng_.uniform())];
}

std::string QueryStream::next_zipf() {
  // bench/bench_service.cpp's serve-shaped mix: the four point lookups in
  // equal shares; heavy analytics split equally over their three kinds.
  const double pick = rng_.uniform();
  const double lookup = (1.0 - kZipfHeavyShare) / 4.0;
  std::string out;
  last_heavy_ = false;
  if (pick < lookup) {
    out = "degree";
    append_id(out, zipf_vertex());
  } else if (pick < 2.0 * lookup) {
    out = "neighbors";
    append_id(out, zipf_vertex());
  } else if (pick < 3.0 * lookup) {
    out = "cliques-containing";
    append_id(out, zipf_vertex());
  } else if (pick < 4.0 * lookup) {
    const std::uint32_t a = zipf_vertex();
    std::uint32_t b = zipf_vertex();
    while (b == a) b = zipf_vertex();
    out = "common-neighbors";
    append_id(out, a);
    append_id(out, b);
  } else {
    last_heavy_ = true;
    const double heavy = (pick - 4.0 * lookup) / kZipfHeavyShare;
    if (heavy < 1.0 / 3.0 || context_.cliques.empty()) {
      out = "kcore-membership";
      append_id(out, 2 + rng_.below(5));
      append_id(out, zipf_vertex());
    } else if (heavy < 2.0 / 3.0) {
      const auto& clique =
          context_.cliques[sample_cdf(context_.clique_cdf, rng_.uniform())];
      out = "paraclique-expand";
      append_id(out, rng_.below(3));
      for (const std::uint32_t v : clique) append_id(out, v);
    } else {
      out = "top-hubs";
      append_id(out, 1 + rng_.below(20));
    }
  }
  return out;
}

bool QueryStream::remember(std::uint64_t identity) {
  const std::uint64_t hash = identity | 1;  // 0 marks an empty slot
  if (2 * (seen_count_ + 1) > seen_.size()) {
    std::vector<std::uint64_t> grown(seen_.size() * 2, 0);
    for (const std::uint64_t h : seen_) {
      if (h == 0) continue;
      std::size_t slot = h & (grown.size() - 1);
      while (grown[slot] != 0) slot = (slot + 1) & (grown.size() - 1);
      grown[slot] = h;
    }
    seen_.swap(grown);
  }
  std::size_t slot = hash & (seen_.size() - 1);
  while (seen_[slot] != 0) {
    if (seen_[slot] == hash) return false;
    slot = (slot + 1) & (seen_.size() - 1);
  }
  seen_[slot] = hash;
  ++seen_count_;
  return true;
}

std::string QueryStream::next_unique() {
  const std::uint64_t n = context_.order;
  const std::uint32_t parts = kStreamPartitions;
  // Draws a vertex w != avoided members with (sum + w) % parts == id, so
  // the query's operand sum — invariant under canonical sorting — names
  // the stream that may send it.
  auto closing_vertex = [&](std::uint64_t sum,
                            const std::vector<std::uint64_t>& taken) {
    const std::uint64_t residue = (stream_id_ + parts - sum % parts) % parts;
    const std::uint64_t slots = (n - residue + parts - 1) / parts;
    for (;;) {
      const std::uint64_t w = residue + parts * rng_.below(slots);
      if (std::find(taken.begin(), taken.end(), w) == taken.end()) return w;
    }
  };
  last_heavy_ = false;
  for (;;) {
    const double pick = rng_.uniform();
    std::string out;
    std::vector<std::uint64_t> members;
    // The set-valued kinds in equal shares, except cliques-containing:
    // it takes one vertex, so a stream can send it at most order / 16
    // times.
    if (pick < kUniqueCliquesShare && !clique_pool_.empty()) {
      // Each vertex of this stream's residue class is used once.
      out = "cliques-containing";
      members.push_back(clique_pool_.back());
      clique_pool_.pop_back();
    } else if (pick < kUniqueCliquesShare + (1.0 - kUniqueCliquesShare) / 2) {
      const std::uint64_t a = rng_.below(n);
      members = {a, closing_vertex(a, {a})};
      out = "common-neighbors";
    } else {
      const std::size_t size = 4 + rng_.below(5);
      std::uint64_t sum = 0;
      while (members.size() + 1 < size) {
        const std::uint64_t v = rng_.below(n);
        if (std::find(members.begin(), members.end(), v) != members.end()) {
          continue;
        }
        members.push_back(v);
        sum += v;
      }
      members.push_back(closing_vertex(sum, members));
      out = "induced-subgraph";
    }
    for (const std::uint64_t v : members) append_id(out, v);
    // Canonical identity is the keyword plus the sorted operand set.
    std::sort(members.begin(), members.end());
    std::uint64_t identity = fnv1a(out.data(), out.find(' '));
    identity = fnv1a(members.data(), members.size() * sizeof(members[0]),
                     identity);
    if (remember(identity)) return out;
  }
}

double StreamShares::repeat_share() const {
  return requests == 0 ? 0.0
                       : static_cast<double>(requests - distinct) /
                             static_cast<double>(requests);
}

double StreamShares::heavy_share() const {
  return requests == 0 ? 0.0
                       : static_cast<double>(heavy) /
                             static_cast<double>(requests);
}

StreamShares measure_stream_shares(StreamKind kind,
                                   const StreamContext& context,
                                   std::uint64_t seed,
                                   const std::vector<std::uint32_t>& ids,
                                   std::size_t per_stream) {
  std::vector<QueryStream> streams;
  streams.reserve(ids.size());
  for (const std::uint32_t id : ids) streams.emplace_back(kind, context, seed, id);
  StreamShares shares;
  std::unordered_set<std::string> distinct;
  for (std::size_t i = 0; i < per_stream; ++i) {
    for (auto& stream : streams) {
      const std::string line = stream.next();
      ++shares.requests;
      if (stream.last_heavy()) ++shares.heavy;
      try {
        distinct.insert(gsb::service::canonical_query(
            gsb::service::parse_query(line)));
      } catch (const std::exception&) {
        ++shares.parse_failures;
      }
    }
  }
  shares.distinct = distinct.size();
  return shares;
}

std::string check_stream_shares(StreamKind kind, const StreamShares& shares) {
  char buffer[160];
  if (shares.parse_failures != 0) {
    std::snprintf(buffer, sizeof(buffer), "%zu generated queries do not parse",
                  shares.parse_failures);
    return buffer;
  }
  const double repeat = shares.repeat_share();
  const double heavy = shares.heavy_share();
  if (kind == StreamKind::kUnique) {
    if (shares.distinct != shares.requests || shares.heavy != 0) {
      std::snprintf(buffer, sizeof(buffer),
                    "unique stream: repeat_share %.6f, heavy_share %.6f "
                    "(both must be 0)",
                    repeat, heavy);
      return buffer;
    }
    return {};
  }
  if (repeat < kZipfRepeatMin || repeat > kZipfRepeatMax ||
      heavy < kZipfHeavyMin || heavy > kZipfHeavyMax) {
    std::snprintf(buffer, sizeof(buffer),
                  "zipf stream: repeat_share %.4f (want %.2f-%.3f), "
                  "heavy_share %.4f (want %.2f-%.2f)",
                  repeat, kZipfRepeatMin, kZipfRepeatMax, heavy,
                  kZipfHeavyMin, kZipfHeavyMax);
    return buffer;
  }
  return {};
}

}  // namespace perfbench
