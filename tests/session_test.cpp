// Oracle gate for iph::session (ISSUE: streaming incremental hull
// sessions).
//
// The load-bearing invariant: after ANY append sequence, the session's
// upper and lower chains must be coordinate-equal to a from-scratch
// strict hull of every point the session has ever seen — the
// incremental insert path, the delta stream, and the periodic
// presorted-rebuild audit all hang off that. The oracle is
// seq::upper_hull (the same pure-serial baseline exec_diff_test trusts),
// applied to the full point log this test keeps on the side (the
// session itself deliberately forgets interior points); the lower
// chain is checked through y-negation of the same oracle.
//
// On top of the gate:
//   * delta replay — a shadow client applying DeltaOps op by op stays
//     exactly in sync with the server-side chains,
//   * rebuild audits — tiny pending/staleness limits force many
//     rebuilds through both exec backends; zero mismatches allowed,
//     and the pram rebuild metrics must be real (work > 0),
//   * ledger determinism — same appends, same config => bit-identical
//     aux watermark; live cells reconcile with chain + pending sizes,
//   * SessionManager statuses (unknown vs closed vs oversized vs cap)
//     and exact stats reconciliation after mixed traffic,
//   * concurrent sessions through one manager (the TSan target),
//   * a time-bounded fuzz loop (IPH_SESSION_FUZZ_MS) over random
//     (family, n, seed, chunking) draws; failures dump a standalone
//     repro JSON under IPH_EXEC_REPRO_DIR in the exec_diff repro
//     shape, so the exec_diff loader can replay the same points.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "exec/native_backend.h"
#include "exec/pram_backend.h"
#include "geom/point.h"
#include "geom/workloads.h"
#include "obs/flight_recorder.h"
#include "pram/machine.h"
#include "seq/upper_hull.h"
#include "session/manager.h"
#include "session/session.h"
#include "session/stats.h"
#include "stats/stats.h"
#include "support/env.h"
#include "support/rng.h"

namespace iph::session {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

using geom::Point2;

/// One shared native engine for rebuild audits across the suite.
exec::NativeBackend& native() {
  static exec::NativeBackend backend;
  return backend;
}

std::vector<Point2> chain_coords(std::span<const Point2> pts,
                                 const geom::UpperHull2D& h) {
  std::vector<Point2> out;
  out.reserve(h.vertices.size());
  for (const geom::Index v : h.vertices) out.push_back(pts[v]);
  return out;
}

/// From-scratch strict upper hull of `pts`, as coordinates.
std::vector<Point2> oracle_upper(const std::vector<Point2>& pts) {
  return chain_coords(pts, seq::upper_hull(pts));
}

/// From-scratch strict lower hull via the y-negation trick the session
/// itself uses — but through the independent sequential oracle.
std::vector<Point2> oracle_lower(const std::vector<Point2>& pts) {
  std::vector<Point2> flipped;
  flipped.reserve(pts.size());
  for (const Point2& p : pts) flipped.push_back({p.x, -p.y});
  std::vector<Point2> chain = chain_coords(flipped, seq::upper_hull(flipped));
  for (Point2& p : chain) p.y = -p.y;
  return chain;
}

/// Assert both session chains equal the oracle hulls of the full log.
void expect_matches_oracle(const HullSession& s,
                           const std::vector<Point2>& log,
                           const std::string& what) {
  EXPECT_EQ(s.upper(), oracle_upper(log)) << what << " (upper)";
  EXPECT_EQ(s.lower(), oracle_lower(log)) << what << " (lower)";
}

/// Client-side delta replay: apply ops in order to shadow chains.
struct Shadow {
  std::vector<Point2> upper, lower;

  void apply(const std::vector<DeltaOp>& ops) {
    for (const DeltaOp& op : ops) {
      std::vector<Point2>& c = op.side == Side::kUpper ? upper : lower;
      ASSERT_LE(op.pos + op.removed, c.size()) << "op out of range";
      c.erase(c.begin() + op.pos, c.begin() + op.pos + op.removed);
      c.insert(c.begin() + op.pos, op.point);
    }
  }
};

SessionConfig tiny_config(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.pending_limit = 8;    // rebuild constantly
  cfg.staleness_limit = 3;  // and on staleness too
  cfg.seed = seed;
  return cfg;
}

// --- oracle gate over workload families --------------------------------

TEST(Session, MatchesOracleAcrossFamiliesAndChunkings) {
  for (const geom::Family2D f : geom::kAllFamilies2D) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{500}}) {
      const std::vector<Point2> pts = geom::make2d(f, n, 77);
      SessionConfig cfg;
      cfg.pending_limit = 64;
      cfg.staleness_limit = 16;
      cfg.seed = 99;
      HullSession s(cfg);
      std::vector<Point2> log;
      std::size_t i = 0;
      std::size_t chunk = 1;
      while (i < pts.size()) {
        const std::size_t take = std::min(chunk, pts.size() - i);
        const std::span<const Point2> batch(pts.data() + i, take);
        const AppendResult res = s.append(batch, native());
        EXPECT_FALSE(res.rebuild_mismatch)
            << geom::family_name(f) << " n=" << n << " at point " << i;
        log.insert(log.end(), batch.begin(), batch.end());
        i += take;
        chunk = chunk % 13 + 1;  // varied batch sizes, deterministic
      }
      expect_matches_oracle(
          s, log, geom::family_name(f) + " n=" + std::to_string(n));
      EXPECT_EQ(s.points_seen(), pts.size());
      EXPECT_EQ(s.rebuild_mismatches(), 0u);
    }
  }
}

TEST(Session, DegenerateInputs) {
  HullSession s(tiny_config(1));
  // Empty append is legal and emits nothing.
  EXPECT_TRUE(s.append({}, native()).ops.empty());
  EXPECT_EQ(s.upper_size(), 0u);
  // All-duplicate and all-collinear streams.
  std::vector<Point2> log;
  for (int i = 0; i < 20; ++i) {
    const Point2 p{1.0, 2.0};
    s.append(std::span<const Point2>(&p, 1), native());
    log.push_back(p);
  }
  expect_matches_oracle(s, log, "duplicates");
  for (int i = 0; i < 20; ++i) {
    const Point2 p{static_cast<double>(i % 7), static_cast<double>(i % 7)};
    s.append(std::span<const Point2>(&p, 1), native());
    log.push_back(p);
  }
  expect_matches_oracle(s, log, "collinear mix");
  EXPECT_EQ(s.rebuild_mismatches(), 0u);
}

// --- delta replay ------------------------------------------------------

TEST(Session, DeltaReplayTracksChains) {
  const std::vector<Point2> pts = geom::make2d(geom::Family2D::kDisk, 600, 5);
  HullSession s(tiny_config(2));
  Shadow shadow;
  std::size_t i = 0;
  std::size_t chunk = 1;
  while (i < pts.size()) {
    const std::size_t take = std::min(chunk, pts.size() - i);
    const AppendResult res =
        s.append(std::span<const Point2>(pts.data() + i, take), native());
    shadow.apply(res.ops);
    ASSERT_EQ(shadow.upper, s.upper()) << "after point " << i;
    ASSERT_EQ(shadow.lower, s.lower()) << "after point " << i;
    i += take;
    chunk = chunk % 7 + 1;
  }
}

// --- rebuild audits through both backends ------------------------------

TEST(Session, RebuildsAuditCleanOnNative) {
  const std::vector<Point2> pts =
      geom::make2d(geom::Family2D::kCircle, 400, 11);
  HullSession s(tiny_config(3));
  for (std::size_t i = 0; i < pts.size(); i += 5) {
    const std::size_t take = std::min<std::size_t>(5, pts.size() - i);
    s.append(std::span<const Point2>(pts.data() + i, take), native());
  }
  EXPECT_GT(s.rebuilds(), 10u);  // tiny limits must have tripped often
  EXPECT_EQ(s.rebuild_mismatches(), 0u);
  expect_matches_oracle(s, pts, "circle after rebuilds");
}

TEST(Session, RebuildsAuditCleanOnPramAndMeterWork) {
  pram::Machine m(2, 42);
  exec::PramBackend pram(m);
  const std::vector<Point2> pts =
      geom::make2d(geom::Family2D::kSquare, 200, 13);
  HullSession s(tiny_config(4));
  pram::Metrics folded;
  for (std::size_t i = 0; i < pts.size(); i += 4) {
    const std::size_t take = std::min<std::size_t>(4, pts.size() - i);
    const AppendResult res =
        s.append(std::span<const Point2>(pts.data() + i, take), pram);
    if (res.rebuilt) folded.add_counters(res.rebuild_metrics);
  }
  EXPECT_GT(s.rebuilds(), 5u);
  EXPECT_EQ(s.rebuild_mismatches(), 0u);
  // The simulator really ran: the folded audit metrics carry cost.
  EXPECT_GT(folded.work, 0u);
  EXPECT_GT(folded.steps, 0u);
  expect_matches_oracle(s, pts, "square after pram rebuilds");
}

TEST(Session, NativeAndPramSessionsAgree) {
  pram::Machine m(2, 43);
  exec::PramBackend pram(m);
  const std::vector<Point2> pts =
      geom::make2d(geom::Family2D::kGaussian, 300, 17);
  HullSession a(tiny_config(5));
  HullSession b(tiny_config(5));
  for (std::size_t i = 0; i < pts.size(); i += 3) {
    const std::size_t take = std::min<std::size_t>(3, pts.size() - i);
    const std::span<const Point2> batch(pts.data() + i, take);
    a.append(batch, native());
    b.append(batch, pram);
  }
  EXPECT_EQ(a.upper(), b.upper());
  EXPECT_EQ(a.lower(), b.lower());
  EXPECT_EQ(a.rebuild_mismatches() + b.rebuild_mismatches(), 0u);
}

// --- the space ledger --------------------------------------------------

TEST(Session, LedgerReconcilesAndIsDeterministic) {
  const std::vector<Point2> pts = geom::make2d(geom::Family2D::kDisk, 500, 23);
  auto run = [&]() {
    HullSession s(tiny_config(6));
    for (std::size_t i = 0; i < pts.size(); i += 9) {
      const std::size_t take = std::min<std::size_t>(9, pts.size() - i);
      s.append(std::span<const Point2>(pts.data() + i, take), native());
    }
    // Live cells == 2 per chain vertex + 2 per pending point, exactly.
    EXPECT_EQ(s.ledger().aux_cells,
              2 * (s.upper_size() + s.lower_size() + s.pending_size()));
    return s.ledger().peak_aux;
  };
  const std::uint64_t peak1 = run();
  const std::uint64_t peak2 = run();
  EXPECT_EQ(peak1, peak2) << "peak workspace must be deterministic";
  EXPECT_GT(peak1, 0u);
}

// --- SessionManager ----------------------------------------------------

TEST(SessionManager, StatusDiscrimination) {
  stats::Registry reg;
  ManagerConfig cfg;
  cfg.max_sessions = 2;
  cfg.max_append_points = 10;
  SessionManager mgr(cfg, native(), reg);
  const std::vector<Point2> pts = geom::make2d(geom::Family2D::kDisk, 4, 1);
  AppendResult res;
  CloseSummary sum;

  // Never-issued ids are unknown — including 0 and far-future ones.
  EXPECT_EQ(mgr.append(0, pts, &res), SessionStatus::kUnknownSession);
  EXPECT_EQ(mgr.append(12345, pts, &res), SessionStatus::kUnknownSession);
  EXPECT_EQ(mgr.close(7, &sum), SessionStatus::kUnknownSession);

  OpenInfo s1, s2, s3;
  EXPECT_EQ(mgr.open(exec::BackendKind::kDefault, &s1), SessionStatus::kOk);
  EXPECT_EQ(s1.backend, exec::BackendKind::kNative);  // resolved
  EXPECT_EQ(mgr.open(exec::BackendKind::kNative, &s2), SessionStatus::kOk);
  EXPECT_EQ(mgr.open(exec::BackendKind::kNative, &s3),
            SessionStatus::kRejectedCap);
  EXPECT_EQ(mgr.live(), 2u);

  // Oversized appends are rejected whole, session untouched.
  const std::vector<Point2> big = geom::make2d(geom::Family2D::kDisk, 11, 2);
  EXPECT_EQ(mgr.append(s1.sid, big, &res), SessionStatus::kOversizedAppend);
  EXPECT_EQ(mgr.append(s1.sid, pts, &res), SessionStatus::kOk);

  // After close, the id flips from ok to closed — not unknown.
  EXPECT_EQ(mgr.close(s1.sid, &sum), SessionStatus::kOk);
  EXPECT_EQ(sum.points_seen, 4u);
  EXPECT_EQ(mgr.append(s1.sid, pts, &res), SessionStatus::kSessionClosed);
  EXPECT_EQ(mgr.close(s1.sid, &sum), SessionStatus::kSessionClosed);
  EXPECT_EQ(mgr.live(), 1u);

  // The freed slot admits a new session.
  EXPECT_EQ(mgr.open(exec::BackendKind::kNative, &s3), SessionStatus::kOk);
  EXPECT_EQ(mgr.close(s2.sid, &sum), SessionStatus::kOk);
  EXPECT_EQ(mgr.close(s3.sid, &sum), SessionStatus::kOk);
}

TEST(SessionManager, StatsReconcileAfterMixedTraffic) {
  stats::Registry reg;
  ManagerConfig cfg;
  cfg.max_sessions = 3;
  cfg.max_append_points = 100;
  cfg.session.pending_limit = 16;
  cfg.session.staleness_limit = 4;
  SessionManager mgr(cfg, native(), reg);
  AppendResult res;
  CloseSummary sum;

  OpenInfo a, b, c, d;
  ASSERT_EQ(mgr.open(exec::BackendKind::kNative, &a), SessionStatus::kOk);
  ASSERT_EQ(mgr.open(exec::BackendKind::kPram, &b), SessionStatus::kOk);
  ASSERT_EQ(mgr.open(exec::BackendKind::kNative, &c), SessionStatus::kOk);
  EXPECT_EQ(mgr.open(exec::BackendKind::kNative, &d),
            SessionStatus::kRejectedCap);

  std::uint64_t ok_appends = 0;
  std::uint64_t ok_points = 0;
  std::uint64_t rebuilds_seen = 0;
  for (int i = 0; i < 12; ++i) {
    const std::vector<Point2> pts =
        geom::make2d(geom::Family2D::kDisk, 8, 100 + i);
    const std::uint64_t sid = i % 2 == 0 ? a.sid : b.sid;
    ASSERT_EQ(mgr.append(sid, pts, &res), SessionStatus::kOk);
    ++ok_appends;
    ok_points += pts.size();
    if (res.rebuilt) ++rebuilds_seen;
  }
  // Oversized is checked before the table lookup, so probe unknown and
  // closed with valid-size batches.
  const std::vector<Point2> big = geom::make2d(geom::Family2D::kDisk, 101, 9);
  const std::vector<Point2> ok = geom::make2d(geom::Family2D::kDisk, 5, 10);
  EXPECT_EQ(mgr.append(a.sid, big, &res), SessionStatus::kOversizedAppend);
  EXPECT_EQ(mgr.append(999, ok, &res), SessionStatus::kUnknownSession);
  ASSERT_EQ(mgr.close(c.sid, &sum), SessionStatus::kOk);
  EXPECT_EQ(mgr.append(c.sid, ok, &res), SessionStatus::kSessionClosed);

  namespace sn = statnames;
  const stats::RegistrySnapshot s = reg.snapshot();
  auto counter = [&](const std::string& name) {
    return s.counter_or0(name);
  };
  EXPECT_EQ(counter(sn::kOpened), 3u);
  EXPECT_EQ(counter(sn::kClosed), 1u);
  EXPECT_EQ(*s.gauge(sn::kLiveSessions), 2);
  // opened == closed + live
  EXPECT_EQ(counter(sn::kOpened),
            counter(sn::kClosed) +
                static_cast<std::uint64_t>(*s.gauge(sn::kLiveSessions)));
  EXPECT_EQ(counter(sn::kAppends), ok_appends);
  EXPECT_EQ(counter(sn::kAppendPoints), ok_points);
  EXPECT_EQ(counter(sn::kRebuilds), rebuilds_seen);
  EXPECT_EQ(counter(stats::labeled(sn::kRejectedBase, "reason", "cap")), 1u);
  EXPECT_EQ(
      counter(stats::labeled(sn::kRejectedBase, "reason", "oversized")), 1u);
  EXPECT_EQ(counter(stats::labeled(sn::kRejectedBase, "reason", "unknown")),
            1u);
  EXPECT_EQ(counter(stats::labeled(sn::kRejectedBase, "reason", "closed")),
            1u);
  EXPECT_EQ(counter(sn::kRebuildMismatch), 0u);
  // rebuilds == pram + native rebuild counters == rebuild_ms count
  EXPECT_EQ(
      counter(stats::labeled(sn::kRebuildBackendBase, "backend", "pram")) +
          counter(
              stats::labeled(sn::kRebuildBackendBase, "backend", "native")),
      counter(sn::kRebuilds));
  EXPECT_EQ(s.histogram(sn::kRebuildMs)->count, counter(sn::kRebuilds));
  EXPECT_EQ(s.histogram(sn::kAppendMs)->count, ok_appends);
  EXPECT_EQ(s.histogram(sn::kDeltaOps)->count, ok_appends);
  // One peak-aux sample per closed session.
  EXPECT_EQ(s.histogram(sn::kPeakAuxCells)->count, counter(sn::kClosed));
  // Live aux cells reconcile exactly against the two live sessions
  // once both are closed: the gauge must return to zero.
  EXPECT_GT(*s.gauge(sn::kAuxCells), 0);
  ASSERT_EQ(mgr.close(a.sid, &sum), SessionStatus::kOk);
  ASSERT_EQ(mgr.close(b.sid, &sum), SessionStatus::kOk);
  const stats::RegistrySnapshot end = reg.snapshot();
  EXPECT_EQ(*end.gauge(sn::kAuxCells), 0);
  EXPECT_EQ(*end.gauge(sn::kLiveSessions), 0);
  EXPECT_EQ(end.counter_or0(sn::kOpened), end.counter_or0(sn::kClosed));
}

// --- concurrency (the TSan target) -------------------------------------

TEST(SessionManager, ConcurrentSessionsStayOracleClean) {
  stats::Registry reg;
  ManagerConfig cfg;
  cfg.max_sessions = 16;
  cfg.session.pending_limit = 32;
  cfg.session.staleness_limit = 8;
  SessionManager mgr(cfg, native(), reg);

  const int kThreads = 8;
  const int kAppends = kSanitized ? 20 : 60;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the sessions rebuild on pram (serialized inside the
      // manager), half on native (shared engine) — concurrently.
      const exec::BackendKind kind = t % 2 == 0
                                         ? exec::BackendKind::kNative
                                         : exec::BackendKind::kPram;
      OpenInfo info;
      if (mgr.open(kind, &info) != SessionStatus::kOk) {
        failures[t] = 1;
        return;
      }
      std::vector<Point2> log;
      for (int i = 0; i < kAppends; ++i) {
        const std::vector<Point2> pts = geom::make2d(
            geom::Family2D::kDisk, 6,
            support::mix3(7, static_cast<std::uint64_t>(t),
                          static_cast<std::uint64_t>(i)));
        AppendResult res;
        if (mgr.append(info.sid, pts, &res) != SessionStatus::kOk ||
            res.rebuild_mismatch) {
          failures[t] = 2;
          return;
        }
        log.insert(log.end(), pts.begin(), pts.end());
      }
      CloseSummary sum;
      if (mgr.close(info.sid, &sum) != SessionStatus::kOk ||
          sum.rebuild_mismatches != 0 ||
          sum.points_seen != log.size()) {
        failures[t] = 3;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  // Everything closed: gauges back to zero, counters conserve.
  const stats::RegistrySnapshot s = reg.snapshot();
  EXPECT_EQ(*s.gauge(statnames::kLiveSessions), 0);
  EXPECT_EQ(*s.gauge(statnames::kAuxCells), 0);
  EXPECT_EQ(s.counter_or0(statnames::kOpened),
            s.counter_or0(statnames::kClosed));
  EXPECT_EQ(s.counter_or0(statnames::kRebuildMismatch), 0u);
}

// --- time-bounded fuzz -------------------------------------------------

void write_repro(const std::string& dir, std::uint64_t fuzz_seed,
                 const geom::Family2D f, std::size_t n, std::uint64_t seed,
                 std::span<const Point2> pts) {
  // Same shape as exec_diff_test's repro files, so the exec_diff
  // repro loader replays these points too.
  const std::string path =
      dir + "/session_repro_" + std::to_string(fuzz_seed) + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\"family\": \"%s\", \"n\": %zu, \"seed\": %llu,\n"
               " \"points\": [",
               geom::family_name(f).c_str(), n,
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::fprintf(out, "%s[%.17g, %.17g]", i == 0 ? "" : ", ", pts[i].x,
                 pts[i].y);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

TEST(Session, FuzzTimeBounded) {
  const std::uint64_t budget_ms =
      support::env_u64("IPH_SESSION_FUZZ_MS", kSanitized ? 100 : 200);
  const std::string repro_dir =
      support::env_string("IPH_EXEC_REPRO_DIR", "");
  const std::uint64_t master = support::env_seed();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  std::uint64_t iters = 0;
  constexpr std::size_t kNumFamilies =
      sizeof(geom::kAllFamilies2D) / sizeof(geom::kAllFamilies2D[0]);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t fz = support::mix3(master, 0x5e5510f2, iters++);
    const geom::Family2D f = geom::kAllFamilies2D[fz % kNumFamilies];
    const std::size_t n =
        1 + static_cast<std::size_t>(support::splitmix64(fz) % 800);
    const std::uint64_t seed = support::splitmix64(fz ^ 0x5e55);
    const std::vector<Point2> pts = geom::make2d(f, n, seed);

    SessionConfig cfg;
    cfg.pending_limit = 1 + support::splitmix64(fz ^ 1) % 32;
    cfg.staleness_limit = 1 + support::splitmix64(fz ^ 2) % 16;
    cfg.seed = fz;
    HullSession s(cfg);
    Shadow shadow;
    std::size_t i = 0;
    std::uint64_t chunk_rng = support::splitmix64(fz ^ 3);
    bool bad = false;
    while (i < pts.size() && !bad) {
      chunk_rng = support::splitmix64(chunk_rng);
      const std::size_t take =
          std::min<std::size_t>(1 + chunk_rng % 17, pts.size() - i);
      const AppendResult res =
          s.append(std::span<const Point2>(pts.data() + i, take), native());
      shadow.apply(res.ops);
      bad = res.rebuild_mismatch || ::testing::Test::HasFailure();
      i += take;
    }
    const std::vector<Point2> log(pts.begin(), pts.begin() + i);
    if (bad || s.upper() != oracle_upper(log) ||
        s.lower() != oracle_lower(log) || shadow.upper != s.upper() ||
        shadow.lower != s.lower()) {
      if (!repro_dir.empty()) write_repro(repro_dir, fz, f, n, seed, pts);
      FAIL() << "session fuzz mismatch: family=" << geom::family_name(f)
             << " n=" << n << " seed=" << seed << " master=" << master
             << " pending_limit=" << cfg.pending_limit
             << " staleness=" << cfg.staleness_limit;
    }
  }
  std::printf("session fuzz: %llu iterations in %llu ms budget\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(budget_ms));
}

// A manager wired to a flight recorder publishes one kind="session"
// trace per append — a session_append root plus a rebuild child iff
// that append rebuilt — so the obs counters reconcile EXACTLY against
// the session counters (the identity hullload --stream --scrape
// checks). A null recorder (the default) publishes nothing.
TEST(SessionManager, AppendsPublishSessionTraces) {
  stats::Registry reg;
  ManagerConfig cfg;
  cfg.session.pending_limit = 8;  // force some rebuilds
  cfg.session.staleness_limit = 2;
  obs::FlightRecorder flight(obs::ObsConfig{}, reg);
  SessionManager mgr(cfg, native(), reg, &flight);

  OpenInfo info;
  ASSERT_EQ(mgr.open(exec::BackendKind::kNative, &info), SessionStatus::kOk);
  AppendResult res;
  std::uint64_t appends = 0, rebuilds = 0;
  for (int i = 0; i < 12; ++i) {
    const std::vector<Point2> pts =
        geom::make2d(geom::Family2D::kDisk, 16, 100 + i);
    ASSERT_EQ(mgr.append(info.sid, pts, &res), SessionStatus::kOk);
    ++appends;
    if (res.rebuilt) ++rebuilds;
  }
  ASSERT_GT(rebuilds, 0u) << "policy never triggered a rebuild";
  CloseSummary sum;
  ASSERT_EQ(mgr.close(info.sid, &sum), SessionStatus::kOk);

  namespace on = obs::statnames;
  const stats::RegistrySnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_or0(
                stats::labeled(on::kTracesPublishedBase, "kind", "session")),
            appends);
  EXPECT_EQ(s.counter_or0(
                stats::labeled(on::kSpansRecordedBase, "kind", "session")),
            appends + rebuilds);

  // The retained trees carry the rebuild child exactly when the append
  // rebuilt, nested under the session_append root.
  std::uint64_t traced_rebuilds = 0;
  for (const obs::CompletedTrace& t : flight.snapshot()) {
    ASSERT_STREQ(t.kind, "session");
    ASSERT_GE(t.spans.size(), 1u);
    EXPECT_STREQ(t.spans[0].name, "session_append");
    if (t.spans.size() == 2) {
      EXPECT_STREQ(t.spans[1].name, "rebuild");
      EXPECT_EQ(t.spans[1].parent_id, obs::kRootSpanId);
      EXPECT_GE(t.spans[1].start_ns, t.spans[0].start_ns);
      EXPECT_LE(t.spans[1].end_ns, t.spans[0].end_ns);
      ++traced_rebuilds;
    }
  }
  EXPECT_EQ(traced_rebuilds, rebuilds);
}

}  // namespace
}  // namespace iph::session
