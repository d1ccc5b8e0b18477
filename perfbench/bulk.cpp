// bulk-* workloads: one in-process caller, closed loop.
//
// The main stream calls exec::NativeBackend(nproc)::upper_hull on large
// seeded inputs (a few distinct point sets, cycled). A side stream with
// the serve workloads' mix runs in process — n=64 queries through the
// same engine, every eighth through exec::PramBackend instead, and one
// 16-point append to a session::HullSession per four queries — so the
// in-process path reports the same query and append metrics as the
// served paths. It gets kSideShare of the run, as a slice after each
// main call in proportion to that call's time, so its timings sample the
// host over the whole run, as the main calls do, and not its state at
// one moment. Side operations are timed one by one and never overlap a
// timed upper_hull call.
//
// Every result is checked outside the timed region: each input's first
// engine result against geom::validate_* and the seq oracle, every later
// result for equality with that validated one (the engine is
// deterministic), every query hull against the seq oracle, and the
// session's replayed delta chains against the oracle of all appended
// points.
//
// With --trace 1 the first half of the run goes without tracing
// (the base of bench.trace_overhead); the second half records spans and
// runs the per-layer decomposition calls beside each timed call on the
// same input.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

#include "common.h"
#include "exec/native_backend.h"
#include "exec/pool.h"
#include "exec/pram_backend.h"
#include "exec/radix.h"
#include "geom/validate.h"
#include "geom/workloads.h"
#include "pram/machine.h"
#include "seq/upper_hull.h"
#include "session/session.h"
#include "support/rng.h"

namespace perfbench {

namespace {

namespace ex = iph::exec;
namespace sq = iph::seq;
using iph::support::mix3;

constexpr int kInputs = 2;          // distinct large inputs per run
constexpr int kSetupReps = 9;       // engine constructions for setup_s
constexpr double kSideShare = 0.05;  // share of the run for the side stream
constexpr int kAppendEvery = 4;      // one append per 4 queries
constexpr std::size_t kSmallInputs = 256;  // distinct n=64 query inputs

bool same_run(const ex::HullRun& a, const ex::HullRun& b) {
  return a.hull.upper.vertices == b.hull.upper.vertices &&
         a.hull.edge_above == b.hull.edge_above;
}

/// The in-process side stream: n=64 native and PRAM queries and
/// session appends, with their checks.
class SideStream {
 public:
  SideStream(std::uint64_t seed, ex::Backend& native)
      : seed_(seed), native_(native), machine_(0, seed), pram_(machine_),
        session_([&] {
          iph::session::SessionConfig c;
          c.seed = seed;
          return c;
        }()) {
    for (std::size_t i = 0; i < kSmallInputs; ++i) {
      small_.push_back(geom::in_disk(64, mix3(seed, 0x5052414d, i)));
    }
  }

  /// Queries and their appends, each timed on its own, until `end`.
  void run_until(std::int64_t end, Result& res) {
    while (now_ns() < end) {
      ++ops_;
      if (ops_ % kPramEvery == 0) {
        pram_ms.push_back(pram_query(res));
      } else {
        query_ms.push_back(native_query(res));
      }
      if (ops_ % kAppendEvery == 0) append_ms.push_back(append(res));
    }
  }

  std::vector<Sample> query_ms, pram_ms, append_ms;

  /// One native query and its check.
  Sample native_query(Result& res) {
    const auto& pts = small_[query_next_++ % kSmallInputs];
    const std::int64_t t0 = now_ns();
    ex::HullRun run = native_.upper_hull(pts, 0, kAlpha);
    const std::int64_t t1 = now_ns();
    ++res.attempted;
    if (coords(pts, run.hull.upper.vertices) !=
        coords(pts, sq::upper_hull(pts).vertices)) {
      res.fail("in-process native n=64 hull differs from the seq oracle");
    }
    return {t0, ms(t1 - t0)};
  }

  /// One PRAM query and its check. Query q repeats input q mod
  /// kSmallInputs under the same seed, so its step/work counters must
  /// repeat exactly too.
  Sample pram_query(Result& res) {
    const std::size_t i = pram_next_++ % kSmallInputs;
    const auto& pts = small_[i];
    const std::int64_t t0 = now_ns();
    ex::HullRun run = pram_.upper_hull(pts, mix3(seed_, 0x71, i), kAlpha);
    const std::int64_t t1 = now_ns();
    ++res.attempted;
    const Counts c{run.metrics.steps, run.metrics.work};
    if (!counts_[i]) {
      counts_[i] = c;
    } else if (*counts_[i] != c) {
      res.fail("in-process PRAM steps/work did not repeat");
    }
    if (coords(pts, run.hull.upper.vertices) !=
        coords(pts, sq::upper_hull(pts).vertices)) {
      res.fail("in-process PRAM hull differs from the seq oracle");
    }
    return {t0, ms(t1 - t0)};
  }

  /// One 16-point session append and its delta replay.
  Sample append(Result& res) {
    std::vector<geom::Point2> batch =
        geom::in_disk(16, mix3(seed_, 0x41505044, appends_));
    const std::int64_t t0 = now_ns();
    iph::session::AppendResult r = session_.append(batch, pram_);
    const std::int64_t t1 = now_ns();
    ++res.attempted;
    ++appends_;
    delta_ops_ += r.ops.size();
    if (r.rebuilt) rebuild_ms_.push_back(r.rebuild_ms);
    if (r.rebuild_mismatch) res.fail("session rebuild mismatch");
    for (const auto& op : r.ops) {
      auto& c = op.side == iph::session::Side::kUpper ? up_ : lo_;
      if (op.pos + op.removed > c.size()) {
        res.fail("session delta op out of range");
        continue;
      }
      c.erase(c.begin() + op.pos, c.begin() + op.pos + op.removed);
      c.insert(c.begin() + op.pos, op.point);
    }
    log_.insert(log_.end(), batch.begin(), batch.end());
    return {t0, ms(t1 - t0)};
  }

  /// Final session check and the per-layer session / PRAM numbers.
  void finish(Result& res) {
    std::vector<geom::Point2> up, lo;
    oracle_chains(log_, &up, &lo);
    if (up != up_ || lo != lo_) {
      res.fail("replayed session chains differ from the seq oracle");
    }
    auto& m = res.metrics;
    m["session.rebuild_ms"] = quantile(rebuild_ms_, 0.5);
    m["session.rebuilds_per_1k_appends"] =
        appends_ ? 1000.0 * static_cast<double>(rebuild_ms_.size()) /
                       static_cast<double>(appends_)
                 : 0;
    m["session.delta_ops_per_append"] =
        appends_ ? static_cast<double>(delta_ops_) /
                       static_cast<double>(appends_)
                 : 0;
    m["session.peak_aux_cells"] =
        static_cast<double>(session_.ledger().peak_aux);
    // Counters over every PRAM input once (untimed for inputs the run
    // did not reach), so they do not depend on how many calls ran.
    std::vector<double> steps, work;
    for (std::size_t i = 0; i < kSmallInputs; ++i) {
      if (!counts_[i]) {
        const ex::HullRun run =
            pram_.upper_hull(small_[i], mix3(seed_, 0x71, i), kAlpha);
        counts_[i] = Counts{run.metrics.steps, run.metrics.work};
      }
      steps.push_back(static_cast<double>(counts_[i]->first));
      work.push_back(static_cast<double>(counts_[i]->second));
    }
    m["pram.steps_per_query"] = mean(steps);
    m["pram.work_per_query"] = mean(work);
  }

 private:
  std::uint64_t seed_;
  ex::Backend& native_;
  iph::pram::Machine machine_;
  ex::PramBackend pram_;
  iph::session::HullSession session_;
  std::vector<std::vector<geom::Point2>> small_;
  std::uint64_t ops_ = 0;
  std::uint64_t query_next_ = 0;
  std::uint64_t pram_next_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t delta_ops_ = 0;
  using Counts = std::pair<std::uint64_t, std::uint64_t>;  // steps, work
  std::vector<std::optional<Counts>> counts_ =
      std::vector<std::optional<Counts>>(kSmallInputs);
  std::vector<double> rebuild_ms_;
  std::vector<geom::Point2> up_, lo_, log_;
};

}  // namespace

int run_bulk(const Args& a) {
  Result res;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::vector<geom::Point2>> inputs;
  for (int k = 0; k < kInputs; ++k) {
    const std::uint64_t s = mix3(a.seed, 0x42554c4b, static_cast<unsigned>(k));
    if (a.family == "circle") {
      inputs.push_back(geom::on_circle(a.n, s));
    } else {
      inputs.push_back(geom::in_disk(a.n, s));
    }
  }

  // setup_s: engine construction until its first call returns.
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    ex::NativeBackend eng(nproc);
    (void)eng.upper_hull(inputs[0], 0, kAlpha);
    setup.push_back(ms(now_ns() - t0) / 1e3);
  }
  res.metrics["setup_s"] = quantile(setup, 0.5);

  ex::NativeBackend eng(nproc);
  std::vector<ex::HullRun> refs(kInputs);  // validated; later calls must equal
  double hull_size = 0;
  for (int k = 0; k < kInputs; ++k) {
    const auto& pts = inputs[k];
    refs[k] = eng.upper_hull(pts, 0, kAlpha);
    auto& hull = refs[k].hull;
    if (a.corrupt && k == 0 && hull.upper.vertices.size() > 2) {
      hull.upper.vertices.erase(hull.upper.vertices.begin() + 1);
    }
    std::string err;
    if (!geom::validate_upper_hull(pts, hull.upper, &err) ||
        !geom::validate_edge_above(pts, hull, &err)) {
      res.fail("input " + std::to_string(k) + ": " + err);
    }
    if (coords(pts, hull.upper.vertices) !=
        coords(pts, sq::upper_hull(pts).vertices)) {
      res.fail("input " + std::to_string(k) +
               ": engine hull differs from the seq oracle");
    }
    hull_size += static_cast<double>(hull.upper.vertices.size()) / kInputs;
  }

  SideStream side(a.seed, eng);
  std::vector<Sample> hull_ms;
  std::uint64_t iter = 0;
  // One closed-loop iteration: the timed call, its check, the side slice.
  const auto iteration = [&](SpanLog* log) -> double {
    const int k = static_cast<int>(iter % kInputs);
    const auto& pts = inputs[k];
    const std::uint64_t tid = ++iter;
    const std::int64_t op0 = now_ns();
    const std::int64_t t0 = now_ns();
    ex::HullRun run = eng.upper_hull(pts, 0, kAlpha);
    const std::int64_t t1 = now_ns();
    const double call = ms(t1 - t0);
    ++res.attempted;
    if (!same_run(run, refs[k])) {
      res.fail("call " + std::to_string(tid) +
               ": result differs from the validated one");
    }
    const std::int64_t t2 = now_ns();
    side.run_until(t2 + static_cast<std::int64_t>(static_cast<double>(t1 - t0) *
                                                  kSideShare / (1 - kSideShare)),
                   res);
    const std::int64_t t3 = now_ns();
    if (log != nullptr) {
      const std::uint32_t root = log->add("bench.op", tid, 0, op0, t3);
      log->add("exec.upper_hull", tid, root, t0, t1);
      log->add("bench.check", tid, root, t1, t2);
      log->add("bench.side_stream", tid, root, t2, t3);
    }
    return call;
  };

  const std::int64_t run_ns = static_cast<std::int64_t>(a.seconds * 1e9);
  const std::int64_t start = now_ns();
  const std::int64_t plain_end = a.trace ? start + run_ns / 2 : start + run_ns;
  while (now_ns() < plain_end) {
    const std::int64_t t = now_ns();
    hull_ms.push_back({t, iteration(nullptr)});
  }

  auto& m = res.metrics;
  m["hull_p50_ms"] = windowed_quantile(hull_ms, 0.5);
  m["hull_p90_ms"] = windowed_quantile(hull_ms, 0.9);
  m["mpts_per_s"] = windowed_mpts(hull_ms, a.n);
  // Closed loop: an operation is due when the previous one returned,
  // so its latency from due is its call time.
  m["query_p50_ms"] = windowed_quantile(side.query_ms, 0.5);
  m["query_p90_ms"] = windowed_quantile(side.query_ms, 0.9);
  m["client.query_p99_ms"] = windowed_quantile(side.query_ms, 0.99);
  m["pram_query_p50_ms"] = windowed_quantile(side.pram_ms, 0.5);
  m["append_p50_ms"] = windowed_quantile(side.append_ms, 0.5);
  m["append_p99_ms"] = windowed_quantile(side.append_ms, 0.99);
  m["geom.hull_size"] = hull_size;
  m["session.append_ms"] = m["append_p50_ms"];
  m["bench.samples"] = static_cast<double>(hull_ms.size());

  if (a.trace) {
    SpanLog log;
    ex::NativeBackend eng1(1);
    ex::ThreadPool pool(nproc);
    std::vector<std::vector<geom::Point2>> sorted = inputs;
    for (auto& s : sorted) geom::sort_lex(s);
    std::vector<Sample> traced;
    std::vector<double> sort, share, pre, t1, seq, scan, assign;
    const std::int64_t end = start + run_ns;
    while (now_ns() < end) {
      const int k = static_cast<int>(iter % kInputs);
      const std::uint64_t tid = iter + 1;
      const std::int64_t t = now_ns();
      const double call = iteration(&log);
      traced.push_back({t, call});
      const auto& pts = inputs[k];
      const auto timed = [&](const char* name, auto&& fn) {
        const std::int64_t s0 = now_ns();
        fn();
        const std::int64_t s1 = now_ns();
        log.add(name, tid, 0, s0, s1);
        return ms(s1 - s0);
      };
      const double st = timed("exec.radix.lex_sort", [&] {
        (void)ex::lex_sort_indices(pts, &pool);
      });
      sort.push_back(st);
      share.push_back(st / call);
      pre.push_back(timed("exec.native.presorted", [&] {
        (void)eng.upper_hull_presorted(sorted[k], 0, kAlpha);
      }));
      t1.push_back(timed("exec.native.t1", [&] {
        (void)eng1.upper_hull(pts, 0, kAlpha);
      }));
      geom::UpperHull2D sh;
      seq.push_back(timed("seq.upper_hull", [&] { sh = sq::upper_hull(pts); }));
      scan.push_back(timed("seq.presorted_scan", [&] {
        (void)sq::upper_hull_presorted(sorted[k]);
      }));
      assign.push_back(timed("seq.assign_edges", [&] {
        (void)sq::assign_edges_above(pts, sh);
      }));
    }
    const double p50 = windowed_quantile(traced, 0.5);
    m["exec.radix.lex_sort_ms"] = quantile(sort, 0.5);
    m["exec.sort_share"] = quantile(share, 0.5);
    m["exec.native.presorted_ms"] = quantile(pre, 0.5);
    m["exec.native.t1_ms"] = quantile(t1, 0.5);
    m["exec.native.speedup"] = p50 > 0 ? quantile(t1, 0.5) / p50 : 0;
    m["seq.upper_hull_ms"] = quantile(seq, 0.5);
    m["exec.native_over_seq"] =
        quantile(seq, 0.5) > 0 ? p50 / quantile(seq, 0.5) : 0;
    m["seq.presorted_scan_ms"] = quantile(scan, 0.5);
    m["seq.assign_edges_ms"] = quantile(assign, 0.5);
    m["bench.trace_overhead"] =
        m["hull_p50_ms"] > 0 ? p50 / m["hull_p50_ms"] : 0;
    m["trace.spans"] = static_cast<double>(log.spans().size());
    log.print_self_table(a.workload + " (seed " + std::to_string(a.seed) + ")");
    if (!a.out_dir.empty()) {
      log.write(a.out_dir + "/" + a.workload + "-seed" +
                std::to_string(a.seed) + ".spans.json");
    }
  }
  side.finish(res);
  m["peak_rss_mb"] = self_peak_rss_mb();
  return res.print();
}

}  // namespace perfbench
