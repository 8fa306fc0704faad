// Serving workloads: `gsb serve --tcp 127.0.0.1:0 --cache --threads 4`
// driven by a closed loop of connections from this one process, with
// every response checked against an in-process QueryEngine.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "bio/expression.h"
#include "service/graph_catalog.h"
#include "service/query.h"
#include "service/query_engine.h"
#include "service/result_cache.h"
#include "storage/clique_stream.h"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr int kConnections = 4;
constexpr int kServerThreads = 4;
constexpr std::size_t kCacheBytes = 64u << 20;  // gsb serve's default
constexpr std::size_t kWarmupPerConnection = 5000;
constexpr std::size_t kSharePrefix = 25000;
constexpr std::uint32_t kWarmupStream = 4;   // ids 4..7
constexpr std::uint32_t kDepthOneStream = 8;
constexpr std::uint32_t kOverheadStream = 9;  // ids 9..12
constexpr std::size_t kSpanCapPerConnection = 20000;
constexpr int kSetupRepeats = 5;

/// One blocking line-protocol connection.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                               " failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Sends \p line plus newline (requests are small: this never waits
  /// for long).  False on error, timeout or disconnect.
  bool send_line(const std::string& line) {
    request_ = line;
    request_ += '\n';
    std::size_t sent = 0;
    while (sent < request_.size()) {
      const ssize_t n = ::send(fd_, request_.data() + sent,
                               request_.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  enum class Read { kLine, kPending, kClosed };

  /// Moves one response line into \p out.  Without \p wait, kPending
  /// means no full line has arrived yet; kClosed is an error, a timeout
  /// or a disconnect.
  Read read_line(std::string& out, bool wait) {
    for (;;) {
      const auto newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        out.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        return Read::kLine;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n =
          ::recv(fd_, chunk, sizeof(chunk), wait ? 0 : MSG_DONTWAIT);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && !wait && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Read::kPending;
      }
      return Read::kClosed;
    }
  }

  bool round_trip(const std::string& line, std::string& out) {
    return send_line(line) && read_line(out, true) == Read::kLine;
  }

 private:
  int fd_ = -1;
  std::string request_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

/// `gsb serve` as a child process on an ephemeral loopback port.
class ServerProcess {
 public:
  ServerProcess(const std::string& gsb, const Artifacts& artifacts,
                const std::string& dir) {
    const std::string out = dir + "/server.out";
    const std::string err = dir + "/server.err";
    std::vector<std::string> args = {gsb,
                                     "serve",
                                     "--graph-file",
                                     artifacts.gsbg,
                                     "--cliques",
                                     artifacts.gsbc,
                                     "--tcp",
                                     "127.0.0.1:0",
                                     "--threads",
                                     std::to_string(kServerThreads),
                                     "--cache"};
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, err.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int rc = posix_spawn(&pid_, gsb.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + gsb + ": " +
                               std::strerror(rc));
    }
    // The server announces "serving on tcp ... (port N)" on stderr.
    const double deadline = now_s() + 30.0;
    while (port_ == 0) {
      std::ifstream in(err);
      std::string line;
      while (std::getline(in, line)) {
        const auto at = line.find("(port ");
        if (line.rfind("serving on tcp", 0) == 0 && at != std::string::npos) {
          port_ = std::stoi(line.substr(at + 6));
        }
      }
      if (port_ != 0) break;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("gsb serve exited during startup; see " + err);
      }
      if (now_s() > deadline) {
        stop();
        throw std::runtime_error("gsb serve did not announce its port");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }

  /// One control request on a fresh connection.
  std::string request(const std::string& line) {
    Connection connection(port_);
    std::string response;
    if (!connection.round_trip(line, response)) {
      throw std::runtime_error("no response to '" + line + "'");
    }
    return response;
  }

  /// Asks for a clean shutdown, then waits; kills after 10 s.
  void stop() {
    if (pid_ <= 0) return;
    try {
      request("shutdown");
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    const double deadline = now_s() + 10.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// `key=value` fields of an `ok stats:` line.
std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> fields;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const auto end = std::min(line.find(' ', pos), line.size());
    const std::string token = line.substr(pos, end - pos);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      fields[token.substr(0, eq)] = std::stod(token.substr(eq + 1));
    }
    pos = end + 1;
  }
  return fields;
}

struct ResponseDigest {
  std::uint64_t hash = 0;
  std::uint64_t length = 0;
  bool operator==(const ResponseDigest&) const = default;
};

ResponseDigest digest_of(const std::string& response) {
  return {fnv1a(response.data(), response.size()), response.size()};
}

/// One stream as sent over one connection: the live generator plus the
/// digest of every answered request, in order.
struct StreamRecord {
  StreamRecord(StreamKind kind, const StreamContext& context,
               std::uint64_t seed, std::uint32_t id)
      : id(id), stream(kind, context, seed, id) {}
  std::uint32_t id;
  QueryStream stream;
  std::vector<ResponseDigest> digests;
  std::vector<float> latency_us;  ///< of the current window only
  std::vector<float> done_at_s;   ///< completion time, from window start
  std::uint64_t failed = 0;       ///< error:/busy/timeout/disconnect
  std::uint64_t error_lines = 0;
  bool broken = false;  ///< connection lost; the stream stops here
};

struct WindowResult {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  [[nodiscard]] double qps() const { return requests / seconds; }
};

/// Closed loop: one connection per record, each sending its next request
/// only after the previous response arrived, until \p seconds pass or
/// each sent \p max_requests; requests in flight at the deadline are
/// awaited.  One thread multiplexes every connection (epoll), so the
/// load generator adds one runnable thread, not one per connection.
/// With a log, every request gets a span (id = stream id and index) up
/// to a per-connection cap.
WindowResult closed_loop(int port, std::vector<StreamRecord>& records,
                         double seconds, std::size_t max_requests,
                         SpanLog* log, std::uint64_t parent) {
  const std::size_t n = records.size();
  std::vector<std::unique_ptr<Connection>> connections(n);
  std::vector<std::string> lines(n);
  std::vector<double> sent_at(n, 0.0);
  std::vector<std::uint64_t> counts(n, 0);
  std::vector<char> waiting(n, 0);
  std::vector<std::vector<Span>> spans(n);
  std::size_t outstanding = 0;
  const int epoll = ::epoll_create1(0);
  if (epoll < 0) throw std::runtime_error("epoll_create1 failed");
  const std::unique_ptr<const int, void (*)(const int*)> epoll_guard(
      &epoll, [](const int* fd) { ::close(*fd); });
  const double start = now_s();
  const double deadline = start + seconds;

  const auto fail = [&](std::size_t c) {
    ++records[c].failed;
    records[c].broken = true;
    if (waiting[c]) {
      waiting[c] = 0;
      --outstanding;
    }
    if (connections[c]) {
      ::epoll_ctl(epoll, EPOLL_CTL_DEL, connections[c]->fd(), nullptr);
      connections[c].reset();
    }
  };
  const auto send_next = [&](std::size_t c) {
    if (counts[c] >= max_requests || now_s() >= deadline) return;
    lines[c] = records[c].stream.next();
    ++counts[c];
    sent_at[c] = now_s();
    waiting[c] = 1;
    ++outstanding;
    if (!connections[c]->send_line(lines[c])) fail(c);
  };

  for (std::size_t c = 0; c < n; ++c) {
    records[c].latency_us.clear();
    records[c].done_at_s.clear();
    if (records[c].broken) continue;
    try {
      connections[c] = std::make_unique<Connection>(port);
    } catch (const std::exception&) {
      fail(c);
      continue;
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = c;
    ::epoll_ctl(epoll, EPOLL_CTL_ADD, connections[c]->fd(), &event);
    send_next(c);
  }

  epoll_event events[16];
  std::string response;
  double progress = now_s();
  while (outstanding > 0) {
    const int ready = ::epoll_wait(epoll, events, 16, 100);
    if (ready <= 0) {
      if (now_s() - progress > 5.0) {  // a silent server: time out
        for (std::size_t c = 0; c < n; ++c) {
          if (waiting[c]) fail(c);
        }
      }
      continue;
    }
    for (int e = 0; e < ready; ++e) {
      const auto c = static_cast<std::size_t>(events[e].data.u64);
      if (!connections[c]) continue;
      const auto read = connections[c]->read_line(response, false);
      if (read == Connection::Read::kPending) continue;
      if (read == Connection::Read::kClosed || !waiting[c]) {
        fail(c);
        continue;
      }
      const double done = now_s();
      progress = done;
      waiting[c] = 0;
      --outstanding;
      StreamRecord& record = records[c];
      record.latency_us.push_back(
          static_cast<float>((done - sent_at[c]) * 1e6));
      record.done_at_s.push_back(static_cast<float>(done - start));
      record.digests.push_back(digest_of(response));
      if (response.rfind("error:", 0) == 0) {
        ++record.failed;
        ++record.error_lines;
      } else if (response.rfind("busy", 0) == 0) {
        ++record.failed;
      }
      if (log != nullptr && spans[c].size() < kSpanCapPerConnection) {
        Span span;
        span.name = lines[c].substr(0, lines[c].find(' '));
        span.layer = "request";
        span.start_s = sent_at[c];
        span.end_s = done;
        span.id = (static_cast<std::uint64_t>(record.id) << 40) |
                  record.digests.size();
        span.parent = parent;
        span.lane = 100 + record.id;
        spans[c].push_back(std::move(span));
      }
      send_next(c);
    }
  }
  WindowResult result;
  result.seconds = now_s() - start;
  for (std::size_t c = 0; c < n; ++c) {
    result.requests += counts[c];
    if (log != nullptr) log->add_batch(spans[c]);
  }
  return result;
}

std::shared_ptr<const gsb::service::GraphEntry> open_entry(
    gsb::service::GraphCatalog& catalog, const Artifacts& artifacts) {
  gsb::service::GraphSpec spec;
  spec.graph_path = artifacts.gsbg;
  spec.cliques_path = artifacts.gsbc;
  spec.index_path = artifacts.gsbci;
  return catalog.open("default", spec);
}

/// Popularity (descending degree, ties by id) and cliques of the served
/// graph, in original labels.
StreamContext make_context(const gsb::service::GraphEntry& entry,
                           const Artifacts& artifacts) {
  StreamContext context;
  context.order = entry.order();
  for (std::uint32_t v = 0; v < context.order; ++v) {
    context.popularity.push_back(v);
  }
  const auto& view = entry.view();
  std::stable_sort(context.popularity.begin(), context.popularity.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return view.degree(entry.to_stored(a)) >
                            view.degree(entry.to_stored(b));
                   });
  auto reader = gsb::storage::GsbcReader::open(artifacts.gsbc);
  std::vector<gsb::graph::VertexId> clique;
  while (reader.next(clique)) {
    context.cliques.emplace_back(clique.begin(), clique.end());
  }
  context.prepare();
  return context;
}

/// Recomputes every answered request of \p records in-process and
/// compares bytes (as 64-bit FNV-1a digest plus length).  Returns the
/// number of mismatches.
std::uint64_t verify_records(
    const std::shared_ptr<const gsb::service::GraphEntry>& entry,
    StreamKind kind, const StreamContext& context, std::uint64_t seed,
    const std::vector<StreamRecord>& records) {
  std::vector<std::uint64_t> mismatches(records.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < records.size(); ++r) {
    threads.emplace_back([&, r] {
      gsb::service::QueryEngine engine(entry);
      QueryStream replay(kind, context, seed, records[r].id);
      std::unordered_map<std::string, ResponseDigest> memo;
      for (const ResponseDigest& got : records[r].digests) {
        const std::string line = replay.next();
        ResponseDigest want;
        if (kind == StreamKind::kZipf) {
          auto it = memo.find(line);
          if (it == memo.end()) {
            it = memo.emplace(line, digest_of(engine.execute_line(line))).first;
          }
          want = it->second;
        } else {
          want = digest_of(engine.execute_line(line));
        }
        if (!(want == got)) ++mismatches[r];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t total = 0;
  for (const auto m : mismatches) total += m;
  return total;
}

/// Records for stream ids [first_id, first_id + count).  The vector is
/// never resized afterwards, so connection threads may hold references.
std::vector<StreamRecord> make_records(StreamKind kind,
                                       const StreamContext& context,
                                       std::uint64_t seed,
                                       std::uint32_t first_id, int count) {
  std::vector<StreamRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  for (int c = 0; c < count; ++c) {
    records.emplace_back(kind, context, seed,
                         first_id + static_cast<std::uint32_t>(c));
  }
  return records;
}

/// Adds every record's failures and verification result to the outcome.
void account(const std::shared_ptr<const gsb::service::GraphEntry>& entry,
             StreamKind kind, const StreamContext& context,
             std::uint64_t seed, const std::vector<StreamRecord>& records,
             Outcome& outcome) {
  std::uint64_t errors = 0;
  for (const StreamRecord& record : records) {
    outcome.attempted += record.digests.size() + (record.broken ? 1 : 0);
    outcome.failed += record.failed;
    errors += record.error_lines;
  }
  const std::uint64_t mismatches =
      verify_records(entry, kind, context, seed, records);
  outcome.failed += mismatches;
  if (mismatches != 0) {
    outcome.fail(std::to_string(mismatches) +
                 " responses differ from the in-process QueryEngine");
  }
  if (errors != 0) {
    outcome.fail(std::to_string(errors) +
                 " error: responses to generated (valid) queries");
  }
}

/// Starts a server over \p artifacts and warms its cache with the
/// warm-up streams (ids 4..7, never measured).
std::unique_ptr<ServerProcess> start_and_warm(
    const RunOptions& options, StreamKind kind, const Artifacts& artifacts,
    const StreamContext& context, const std::string& dir) {
  auto server =
      std::make_unique<ServerProcess>(options.gsb_binary, artifacts, dir);
  auto warm = make_records(kind, context, options.seed, kWarmupStream,
                           kConnections);
  closed_loop(server->port(), warm, 60.0, kWarmupPerConnection, nullptr, 0);
  for (const auto& record : warm) {
    if (record.failed != 0) throw std::runtime_error("warm-up requests failed");
  }
  return server;
}

/// The service-layer figures with a server already running (and warmed).
void measure_service_layers(const RunOptions& options, StreamKind kind,
                            ServerProcess& server,
                            const std::shared_ptr<const gsb::service::GraphEntry>&
                                entry,
                            const StreamContext& context, SpanLog& log,
                            Outcome& outcome) {
  Metrics& m = outcome.metrics;
  Scope root(log, "service layers", "bench");

  // Depth-1 closed loop: one connection, one request in flight.
  auto depth_one =
      make_records(kind, context, options.seed, kDepthOneStream, 1);
  {
    Scope span(log, "depth-1 loop", "service", root.id());
    closed_loop(server.port(), depth_one, 1.0, 1u << 30, &log, span.id());
  }
  const std::vector<float>& lat = depth_one[0].latency_us;
  std::vector<double> depth_us(lat.begin(), lat.end());
  account(entry, kind, context, options.seed, depth_one, outcome);

  // In-process replay of the same requests: parse (+ canonical key),
  // cache lookup, execute and insert on a miss — what the server does
  // per request — with a cache pre-warmed like the server's.
  gsb::service::QueryEngine engine(entry);
  gsb::service::ResultCache cache(kCacheBytes);
  const std::uint64_t epoch = entry->epoch();
  {
    auto warm = make_records(kind, context, options.seed, kWarmupStream,
                             kConnections);
    for (std::size_t i = 0; i < kWarmupPerConnection; ++i) {
      for (auto& record : warm) {
        const auto query = gsb::service::parse_query(record.stream.next());
        const auto key = gsb::service::canonical_query(query);
        if (!cache.lookup(epoch, key)) {
          cache.insert(epoch, key, engine.execute(query));
        }
      }
    }
  }
  std::vector<double> parse_us, lookup_us, execute_us, insert_us, service_us;
  {
    Scope span(log, "in-process replay", "service", root.id());
    QueryStream replay(kind, context, options.seed, kDepthOneStream);
    for (std::size_t i = 0; i < depth_us.size(); ++i) {
      const std::string line = replay.next();
      const double t0 = now_s();
      const auto query = gsb::service::parse_query(line);
      const std::string key = gsb::service::canonical_query(query);
      const double t1 = now_s();
      const auto hit = cache.lookup(epoch, key);
      const double t2 = now_s();
      parse_us.push_back((t1 - t0) * 1e6);
      lookup_us.push_back((t2 - t1) * 1e6);
      double total = t2 - t0;
      if (!hit) {
        const std::string response = engine.execute(query);
        const double t3 = now_s();
        cache.insert(epoch, key, response);
        const double t4 = now_s();
        execute_us.push_back((t3 - t2) * 1e6);
        insert_us.push_back((t4 - t3) * 1e6);
        total = t4 - t0;
      }
      service_us.push_back(total * 1e6);
    }
  }
  const double requests = static_cast<double>(depth_us.size());
  const double parse_mean = mean(parse_us);
  const double lookup_mean = mean(lookup_us);
  // Per-request contributions: execute and insert happen on misses only.
  const double execute_share =
      requests == 0 ? 0.0 : mean(execute_us) * execute_us.size() / requests;
  const double insert_share =
      requests == 0 ? 0.0 : mean(insert_us) * insert_us.size() / requests;
  const double latency_mean = mean(depth_us);
  const double transport =
      latency_mean - parse_mean - lookup_mean - execute_share - insert_share;
  m.set("service.parse_us", parse_mean, "us");
  m.set("service.cache_lookup_us", lookup_mean, "us");
  m.set("service.cache_insert_us", mean(insert_us), "us");
  m.set("service.transport_us", transport, "us");

  // Per-type execute cost: a fixed probe of every query type, so each
  // figure exists on every workload whatever its mix.
  {
    Scope span(log, "per-type execute probes", "service", root.id());
    gsb::service::QueryEngine probe_engine(entry);
    Rng rng(derive_seed(options.seed, "probe"));
    const auto vertex = [&] {
      return context.popularity[rng.below(context.popularity.size())];
    };
    const auto add = [](std::string& line, std::uint64_t id) {
      line += ' ';
      line += std::to_string(id);
    };
    const std::vector<std::string> kinds = {
        "neighbors",         "degree",
        "common-neighbors",  "induced-subgraph",
        "kcore-membership",  "cliques-containing",
        "paraclique-expand", "top-hubs"};
    for (const std::string& name : kinds) {
      std::vector<double> times;
      for (int i = 0; i < 200; ++i) {
        std::string line = name;
        if (name == "common-neighbors") {
          const auto a = vertex();
          auto b = vertex();
          while (b == a) b = vertex();
          add(line, a);
          add(line, b);
        } else if (name == "induced-subgraph") {
          for (int j = 0; j < 6; ++j) add(line, vertex());
        } else if (name == "kcore-membership") {
          add(line, 2 + rng.below(5));
          add(line, vertex());
        } else if (name == "paraclique-expand") {
          add(line, rng.below(3));
          for (const auto v : context.cliques[rng.below(context.cliques.size())]) {
            add(line, v);
          }
        } else if (name == "top-hubs") {
          add(line, 1 + rng.below(20));
        } else {
          add(line, vertex());
        }
        const auto query = gsb::service::parse_query(line);
        const double t0 = now_s();
        const std::string response = probe_engine.execute(query);
        times.push_back((now_s() - t0) * 1e6);
        if (response.rfind("error:", 0) == 0) {
          outcome.fail("probe query failed: " + response);
        }
      }
      m.set("service.execute_us." + name, mean(times), "us");
    }
  }

  // Server-side counters.
  const auto stats = parse_stats(server.request("stats"));
  const double hits = stats.count("cache_hits") ? stats.at("cache_hits") : 0;
  const double misses =
      stats.count("cache_misses") ? stats.at("cache_misses") : 0;
  m.set("service.cache_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");

  const StreamShares shares = measure_stream_shares(
      kind, context, options.seed, {0, 1, 2, 3}, kSharePrefix);
  m.set("service.repeat_share", shares.repeat_share(), "ratio");
  m.set("service.heavy_share", shares.heavy_share(), "ratio");

  // The per-request table at depth 1: means, so rows add up.
  std::vector<std::pair<std::string, std::string>> table = {
      {"transport (remainder)",
       fmt("%9.3f us", transport) + fmt("  %5.1f%%", 100 * transport / latency_mean)},
      {"parse + canonical key",
       fmt("%9.3f us", parse_mean) + fmt("  %5.1f%%", 100 * parse_mean / latency_mean)},
      {"cache lookup",
       fmt("%9.3f us", lookup_mean) + fmt("  %5.1f%%", 100 * lookup_mean / latency_mean)},
      {"execute (misses)",
       fmt("%9.3f us", execute_share) +
           fmt("  %5.1f%%", 100 * execute_share / latency_mean)},
      {"cache insert (misses)",
       fmt("%9.3f us", insert_share) +
           fmt("  %5.1f%%", 100 * insert_share / latency_mean)},
      {"= mean latency at depth 1", fmt("%9.3f us", latency_mean)},
      {"  p50 latency at depth 1", fmt("%9.3f us", median(depth_us))},
      {"  requests (in-process misses)",
       fmt("%.0f", requests) + fmt(" (%.0f)", static_cast<double>(insert_us.size()))}};
  print_table("per-request table, " + options.workload + " (" +
                  (kind == StreamKind::kZipf ? "zipf" : "unique") +
                  " stream, depth 1):",
              table);
  if (options.workload.rfind("serve-", 0) == 0) {
    // In-server layers only; transport is the remainder above.
    const std::vector<std::pair<std::string, double>> inside = {
        {"parse", parse_mean},
        {"cache lookup", lookup_mean},
        {"execute", execute_share},
        {"cache inserts", insert_share}};
    const auto top = *std::max_element(
        inside.begin(), inside.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    bool held = false;
    if (kind == StreamKind::kZipf) {
      held = transport + lookup_mean > 0.5 * latency_mean;
    } else {
      held = top.first == "cache inserts";
    }
    std::printf(
        "dominant in-server layer: %s; transport %.1f%% of latency; "
        "predicted %s: %s\n",
        top.first.c_str(), 100 * transport / latency_mean,
        predicted_dominant_layer(options.workload).c_str(),
        held ? "held" : "NOT held");
  }
}

}  // namespace

void trace_service_layers(const RunOptions& options, StreamKind kind,
                          const Artifacts& artifacts, SpanLog& log,
                          Outcome& outcome) {
  gsb::service::GraphCatalog catalog;
  const auto entry = open_entry(catalog, artifacts);
  const StreamContext context = make_context(*entry, artifacts);
  const std::string dir = fs::path(artifacts.gsbc).parent_path().string();
  auto server = start_and_warm(options, kind, artifacts, context, dir);
  measure_service_layers(options, kind, *server, entry, context, log,
                         outcome);
  server->stop();
}

void run_serve_workload(const RunOptions& options, Outcome& outcome) {
  const StreamKind kind = options.workload == "serve-zipf"
                              ? StreamKind::kZipf
                              : StreamKind::kUnique;
  PipelineSpec spec = modules_spec();
  spec.name = options.workload;
  spec.tiled = true;  // served artifacts come from the out-of-core build
  SpanLog log(options.trace);
  Scope root(log, options.workload, "bench");

  // Setup, repeated: inputs, artifact build, server start, warm-up.  The
  // last setup's server is the one measured.
  std::vector<double> setup_s;
  gsb::bio::ExpressionMatrix raw;
  Artifacts artifacts;
  std::unique_ptr<ServerProcess> server;
  std::optional<StreamContext> context;
  gsb::service::GraphCatalog catalog;
  std::shared_ptr<const gsb::service::GraphEntry> entry;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server) server->stop();
    server.reset();
    Scope span(log, "setup", "bench", root.id());
    {
      Scope gen(log, "generate inputs", "bench", span.id());
      raw = generate_expression(spec.expression, options.seed);
    }
    artifacts =
        build_serving_artifacts(spec, raw, options.work_dir, log, span.id());
    // The stream context reads the served artifacts; it is the
    // benchmark's own input preparation, so it stays outside the clock.
    const double paused = now_s();
    entry.reset();
    entry = open_entry(catalog, artifacts);
    context.emplace(make_context(*entry, artifacts));
    const double pause = now_s() - paused;
    {
      Scope start(log, "server start + warm-up", "service", span.id());
      server = start_and_warm(options, kind, artifacts, *context,
                              options.work_dir);
    }
    setup_s.push_back(span.stop() - pause);
  }

  const StreamShares shares = measure_stream_shares(
      kind, *context, options.seed, {0, 1, 2, 3}, kSharePrefix);
  if (const std::string problem = check_stream_shares(kind, shares);
      !problem.empty()) {
    outcome.fail(problem);
  }

  if (options.trace) {
    // Tracing overhead: alternating untraced/traced windows over the same
    // four streams, median of the paired throughput differences.
    auto records =
        make_records(kind, *context, options.seed, kOverheadStream, kConnections);
    std::vector<double> overhead;
    {
      Scope span(log, "overhead windows", "bench", root.id());
      for (int pair = 0; pair < 3; ++pair) {
        const auto off = closed_loop(server->port(), records, 0.5, 1u << 30,
                                     nullptr, 0);
        const auto on = closed_loop(server->port(), records, 0.5, 1u << 30,
                                    &log, span.id());
        overhead.push_back(100.0 * (off.qps() - on.qps()) / off.qps());
      }
    }
    outcome.metrics.set("obs.trace_overhead_pct", median(overhead), "%");
    account(entry, kind, *context, options.seed, records, outcome);
    measure_service_layers(options, kind, *server, entry, *context, log,
                           outcome);
    server->stop();
    double pipeline_s = 0.0;
    trace_pipeline_layers(spec, raw, options.work_dir + "/traced", log,
                          outcome, &pipeline_s);
    root.stop();
    if (!options.trace_out.empty()) log.write_chrome(options.trace_out);
    return;
  }

  auto records = make_records(kind, *context, options.seed, 0, kConnections);
  const WindowResult window = closed_loop(server->port(), records,
                                          options.seconds, 1u << 30, nullptr, 0);
  const auto stats = parse_stats(server->request("stats"));
  server->stop();
  account(entry, kind, *context, options.seed, records, outcome);

  // Robust to short stalls of a shared host: each figure is the median
  // over the window's whole seconds of that second's p50 / p99 / rate.
  const auto seconds = static_cast<std::size_t>(window.seconds);
  std::vector<std::vector<double>> per_second(seconds);
  for (const auto& record : records) {
    for (std::size_t i = 0; i < record.latency_us.size(); ++i) {
      const auto at = static_cast<std::size_t>(record.done_at_s[i]);
      if (at < seconds) per_second[at].push_back(record.latency_us[i]);
    }
  }
  std::vector<double> p50_us, tail_us, rate;
  for (const auto& samples : per_second) {
    if (samples.empty()) continue;
    p50_us.push_back(median(samples));
    tail_us.push_back(quantile(samples, 0.99));
    rate.push_back(static_cast<double>(samples.size()));
  }
  if (rate.empty()) {
    outcome.fail("no request completed");
    p50_us = tail_us = rate = {0.0};
  }
  Metrics& m = outcome.metrics;
  m.set("setup_s", median(setup_s), "s");
  m.set("op_p50_ms", median(p50_us) / 1e3, "ms");
  m.set("op_tail_ms", median(tail_us) / 1e3, "ms");
  m.set("ops_per_s", median(rate), "1/s");
  m.set("peak_rss_mb",
        stats.count("rss_bytes") ? stats.at("rss_bytes") / kMiB : 0.0, "MB");
  const double hits = stats.count("cache_hits") ? stats.at("cache_hits") : 0;
  const double misses =
      stats.count("cache_misses") ? stats.at("cache_misses") : 0;
  std::printf(
      "%s: %llu requests over %d connections in %.2f s; cache hits %.1f%% "
      "(server stats); repeat_share %.4f, heavy_share %.4f\n",
      options.workload.c_str(), static_cast<unsigned long long>(window.requests),
      kConnections, window.seconds,
      hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0,
      shares.repeat_share(), shares.heavy_share());
}

}  // namespace perfbench
