#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <thread>

#include "seq/upper_hull.h"
#include "support/env.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double windowed(const std::vector<Sample>& s, double q,
                const std::function<double(const std::vector<double>&)>& stat) {
  if (s.empty()) return 0;
  const auto beyond = static_cast<double>(s.size()) * std::min(q, 1 - q);
  const int windows = std::clamp(static_cast<int>(beyond / 10), 1, kWindows);
  std::int64_t lo = s.front().t, hi = s.front().t;
  for (const Sample& x : s) {
    lo = std::min(lo, x.t);
    hi = std::max(hi, x.t);
  }
  std::vector<std::vector<double>> win(windows);
  const double span = static_cast<double>(hi - lo) + 1;
  for (const Sample& x : s) {
    win[static_cast<std::size_t>(static_cast<double>(x.t - lo) / span * windows)]
        .push_back(x.ms);
  }
  std::vector<double> per;
  for (const auto& w : win) {
    if (!w.empty()) per.push_back(stat(w));
  }
  return quantile(per, 0.5);
}

double windowed_mpts(const std::vector<Sample>& call_ms, std::size_t n) {
  return windowed(call_ms, 0.5, [n](const std::vector<double>& v) {
    return static_cast<double>(n * v.size()) /
           std::accumulate(v.begin(), v.end(), 0.0) / 1e3;
  });
}

void Result::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 20) notes.push_back(why);
}

void Result::invalidate(const std::string& why) {
  valid = false;
  notes.push_back("invalid run: " + why);
}

int Result::print() const {
  trace::Json o = trace::Json::object();
  o["correct"] = trace::Json(failed == 0 && valid);
  o["attempted"] = trace::Json(attempted);
  o["failed"] = trace::Json(failed);
  trace::Json m = trace::Json::object();
  for (const auto& [k, v] : metrics) m[k] = trace::Json(v);
  o["metrics"] = std::move(m);
  trace::Json n = trace::Json::array();
  for (const std::string& s : notes) n.push_back(trace::Json(s));
  o["notes"] = std::move(n);
  std::printf("%s\n", o.dump().c_str());
  std::fflush(stdout);
  return failed == 0 && valid ? 0 : 1;
}

std::uint32_t SpanLog::add(std::string name, std::uint64_t trace,
                           std::uint32_t parent, std::int64_t start_ns,
                           std::int64_t end_ns) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({std::move(name), trace, id, parent, start_ns, end_ns});
  return id;
}

std::map<std::string, std::vector<double>> SpanLog::self_times_ms() const {
  std::vector<std::int64_t> child(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    const std::int64_t self = s.end_ns - s.start_ns - child[s.id];
    out[s.name].push_back(ms(std::max<std::int64_t>(self, 0)));
  }
  return out;
}

void SpanLog::print_self_table(const std::string& title) const {
  const auto self = self_times_ms();
  double total = 0;
  for (const auto& [name, v] : self) {
    total += std::accumulate(v.begin(), v.end(), 0.0);
  }
  std::fprintf(stderr, "self time, %s (%zu spans)\n", title.c_str(),
               spans_.size());
  std::fprintf(stderr, "  %-26s %8s %12s %12s %8s\n", "span", "count",
               "p50_ms", "mean_ms", "share");
  for (const auto& [name, v] : self) {
    const double sum = std::accumulate(v.begin(), v.end(), 0.0);
    std::fprintf(stderr, "  %-26s %8zu %12.5f %12.5f %7.1f%%\n",
                 name.c_str(), v.size(), quantile(v, 0.5), mean(v),
                 total > 0 ? 100.0 * sum / total : 0.0);
  }
}

void SpanLog::write(const std::string& path) const {
  if (spans_.empty()) return;
  std::int64_t base = spans_.front().start_ns;
  for (const Span& s : spans_) base = std::min(base, s.start_ns);
  trace::Json events = trace::Json::array();
  for (const Span& s : spans_) {
    trace::Json e = trace::Json::object();
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = trace::Json(s.trace);
    e["name"] = s.name;
    e["ts"] = trace::Json(static_cast<double>(s.start_ns - base) / 1e3);
    e["dur"] = trace::Json(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    trace::Json args = trace::Json::object();
    args["span"] = trace::Json(static_cast<std::uint64_t>(s.id));
    args["parent"] = trace::Json(static_cast<std::uint64_t>(s.parent));
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  trace::Json doc = trace::Json::object();
  doc["traceEvents"] = std::move(events);
  std::ofstream f(path);
  f << doc.dump() << "\n";
}

trace::Json provenance() {
  trace::Json p = trace::Json::object();
  p["nproc"] = trace::Json(std::thread::hardware_concurrency());
  p["build_type"] = IPH_BENCH_BUILD_TYPE;
  p["compiler"] = IPH_BENCH_COMPILER;
  const char* t = std::getenv("IPH_THREADS");
  p["iph_threads"] = t != nullptr ? t : "unset";
  p["engine_width"] = trace::Json(iph::support::env_threads());
  p["offered_rate"] = trace::Json(kQueryRate);
  p["append_rate"] = trace::Json(kAppendRate);
  p["conns"] = trace::Json(kConns);
  return p;
}

std::vector<geom::Point2> coords(std::span<const geom::Point2> pts,
                                 const std::vector<geom::Index>& idx) {
  std::vector<geom::Point2> out;
  out.reserve(idx.size());
  for (const geom::Index i : idx) {
    out.push_back(i < pts.size() ? pts[i] : geom::Point2{NAN, NAN});
  }
  return out;
}

void oracle_chains(const std::vector<geom::Point2>& pts,
                   std::vector<geom::Point2>* upper,
                   std::vector<geom::Point2>* lower) {
  *upper = coords(pts, iph::seq::upper_hull(pts).vertices);
  std::vector<geom::Point2> flipped;
  flipped.reserve(pts.size());
  for (const geom::Point2& p : pts) flipped.push_back({p.x, -p.y});
  *lower = coords(flipped, iph::seq::upper_hull(flipped).vertices);
  for (geom::Point2& p : *lower) p.y = -p.y;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
