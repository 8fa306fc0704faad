#include "trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::add(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void SpanLog::add_batch(std::vector<Span>& spans) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& span : spans) spans_.push_back(std::move(span));
  spans.clear();
}

void SpanLog::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << span.lane << ",\"ts\":" << format_number(span.start_s * 1e6)
        << ",\"dur\":" << format_number((span.end_s - span.start_s) * 1e6)
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "\n]}\n";
}

Scope::Scope(SpanLog& log, std::string name, std::string layer,
             std::uint64_t parent)
    : log_(log) {
  span_.name = std::move(name);
  span_.layer = std::move(layer);
  span_.parent = parent;
  span_.id = log.next_id();
  span_.start_s = now_s();
}

Scope::~Scope() { stop(); }

double Scope::stop() {
  if (open_) {
    span_.end_s = now_s();
    open_ = false;
    log_.add(span_);
  }
  return span_.end_s - span_.start_s;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& entry : entries_) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(entry.name);
    out += "\": {\"value\": ";
    out += format_number(entry.value);
    out += ", \"unit\": \"";
    out += json_escape(entry.unit);
    out += "\"}";
  }
  return out + "}";
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace perfbench
