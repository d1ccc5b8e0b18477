// Shared pieces of the benchmark binary (iphbench): clocks, sample
// statistics, the in-memory span log, provenance and the result line.
//
// iphbench is driven by run.py. Every mode ends by printing ONE JSON
// line on stdout: {"correct", "attempted", "failed", "metrics": {name:
// value}, "notes": [...]} — run.py attaches units from BENCHMARK.json,
// adds the metrics only it can measure (server set-up time and memory)
// and prints the final result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "geom/hull_types.h"
#include "geom/point.h"
#include "trace/json.h"

namespace perfbench {

namespace geom = iph::geom;
namespace trace = iph::trace;
using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// A latency sample and when its operation started (steady clock, ns).
struct Sample {
  std::int64_t t = 0;
  double ms = 0;
};

/// End-to-end statistics that one host stall cannot swing: the run is
/// cut into equal time windows, `stat` is taken over the latencies of
/// each, and the median of those is returned. There are kWindows
/// windows, fewer when a window would hold under ten samples beyond the
/// q-quantile `stat` depends on (one window = the whole run).
inline constexpr int kWindows = 5;
double windowed(const std::vector<Sample>& s, double q,
                const std::function<double(const std::vector<double>&)>& stat);
inline double windowed_quantile(const std::vector<Sample>& s, double q) {
  return windowed(s, q, [q](const std::vector<double>& v) { return quantile(v, q); });
}
/// Millions of points hulled per second of time inside the engine
/// calls `call_ms`, each on `n` points (windowed like the p50).
double windowed_mpts(const std::vector<Sample>& call_ms, std::size_t n);

/// The serve mix, shared by the served workloads and the bulk side
/// stream: n=64 queries, every kPramEvery-th on the PRAM, all at the
/// wire's default alpha. The served workloads offer kQueryRate queries
/// per second over kConns connections and kAppendRate session appends
/// per second on one more.
inline constexpr int kPramEvery = 8;
inline constexpr int kAlpha = 8;
inline constexpr double kQueryRate = 1000;
inline constexpr double kAppendRate = 250;
inline constexpr int kConns = 4;

/// Command-line arguments shared by every mode.
struct Args {
  std::string mode;          ///< "bulk" or "load"
  std::string workload;      ///< workload name (recorded, not interpreted)
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;      ///< self-test: corrupt one result on purpose
  std::string out_dir;       ///< where span logs are written
  // bulk
  std::string family = "disk";
  std::size_t n = 1u << 20;
  // load
  std::string target;        ///< host:port of hullserved or hullrouter
};

/// The metrics one mode reports, by name, plus the correctness tally.
struct Result {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool valid = true;                 ///< reconciliation held
  std::vector<std::string> notes;    ///< why a run is failed or invalid

  void fail(const std::string& why);       ///< one failed operation
  void invalidate(const std::string& why); ///< run-level mismatch
  /// Print the result line; returns the process exit code (0 iff
  /// every operation succeeded and every reconciliation held).
  int print() const;
};

/// One benchmark-side span. Ids are unique within one SpanLog;
/// `trace` groups the spans of one operation.
struct Span {
  std::string name;
  std::uint64_t trace = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory during the run and written out at the end.
class SpanLog {
 public:
  std::uint32_t add(std::string name, std::uint64_t trace,
                    std::uint32_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name self time (duration minus the time direct children
  /// cover), in ms, one entry per span of that name.
  std::map<std::string, std::vector<double>> self_times_ms() const;
  /// Print the self-time table (count, p50, mean, share of all self
  /// time) to stderr under `title`.
  void print_self_table(const std::string& title) const;
  /// Write the spans as Chrome trace events to `path` (best effort).
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// nproc, build type, compiler, IPH_THREADS, the engine width and the
/// serve schedule's rates.
trace::Json provenance();

/// The points `idx` names, as coordinates (NaN for an index out of range).
std::vector<geom::Point2> coords(std::span<const geom::Point2> pts,
                                 const std::vector<geom::Index>& idx);

/// Upper and lower hull chains (x-ascending coordinates) of `pts` by the
/// sequential oracle (lower through y-negation, as the session does).
void oracle_chains(const std::vector<geom::Point2>& pts,
                   std::vector<geom::Point2>* upper,
                   std::vector<geom::Point2>* lower);

/// Peak resident set of this process, MiB (getrusage).
double self_peak_rss_mb();

int run_bulk(const Args& a);
int run_load(const Args& a);

}  // namespace perfbench
