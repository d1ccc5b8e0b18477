#include "session/manager.h"

#include <chrono>

#include "exec/pram_backend.h"
#include "support/rng.h"

namespace iph::session {

namespace {

std::uint64_t steady_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

}  // namespace

const char* session_status_name(SessionStatus s) noexcept {
  switch (s) {
    case SessionStatus::kOk:
      return "ok";
    case SessionStatus::kRejectedCap:
      return "cap";
    case SessionStatus::kUnknownSession:
      return "unknown";
    case SessionStatus::kSessionClosed:
      return "closed";
    case SessionStatus::kOversizedAppend:
      return "oversized";
  }
  return "?";
}

SessionManager::SessionManager(const ManagerConfig& cfg,
                               exec::NativeBackend& native,
                               stats::Registry& registry,
                               obs::FlightRecorder* flight)
    : cfg_(cfg),
      stats_(registry),
      flight_(flight),
      native_(native),
      machine_(/*threads=*/0, cfg.master_seed) {
  if (cfg_.default_backend == exec::BackendKind::kDefault) {
    cfg_.default_backend = exec::BackendKind::kNative;
  }
}

SessionStatus SessionManager::open(exec::BackendKind want, OpenInfo* out) {
  const exec::BackendKind resolved =
      want == exec::BackendKind::kDefault ? cfg_.default_backend : want;
  std::uint64_t sid = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (live_.size() >= cfg_.max_sessions) {
      stats_.rejected_cap.inc();
      return SessionStatus::kRejectedCap;
    }
    sid = next_sid_++;
    SessionConfig sc = cfg_.session;
    sc.seed = support::mix3(cfg_.master_seed, 0x73657373ULL /* "sess" */, sid);
    auto entry = std::make_shared<Entry>(sc);
    entry->backend = resolved;
    live_.emplace(sid, std::move(entry));
    stats_.live_sessions.set(static_cast<std::int64_t>(live_.size()));
  }
  stats_.opened.inc();
  out->sid = sid;
  out->backend = resolved;
  return SessionStatus::kOk;
}

SessionStatus SessionManager::append(std::uint64_t sid,
                                     std::span<const geom::Point2> pts,
                                     AppendResult* out) {
  if (pts.size() > cfg_.max_append_points) {
    stats_.rejected_oversized.inc();
    return SessionStatus::kOversizedAppend;
  }
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (sid == 0 || sid >= next_sid_) {
      stats_.rejected_unknown.inc();
      return SessionStatus::kUnknownSession;
    }
    auto it = live_.find(sid);
    if (it == live_.end()) {
      stats_.rejected_closed.inc();
      return SessionStatus::kSessionClosed;
    }
    entry = it->second;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t aux_before = 0;
  std::uint64_t aux_after = 0;
  {
    std::lock_guard<std::mutex> lk(entry->mu);
    if (entry->closed) {
      stats_.rejected_closed.inc();
      return SessionStatus::kSessionClosed;
    }
    aux_before = entry->session.ledger().aux_cells;
    if (entry->backend == exec::BackendKind::kPram) {
      // The simulator wants exclusive access; rebuilds are rare enough
      // that serializing possible-rebuild appends on one machine is
      // cheaper than a machine per session.
      std::lock_guard<std::mutex> mk(machine_mu_);
      exec::PramBackend backend(machine_);
      *out = entry->session.append(pts, backend);
    } else {
      *out = entry->session.append(pts, native_);
    }
    aux_after = entry->session.ledger().aux_cells;
  }
  const auto done = std::chrono::steady_clock::now();
  const double append_ms =
      std::chrono::duration<double, std::milli>(done - t0).count();
  stats_.aux_cells.add(static_cast<std::int64_t>(aux_after) -
                       static_cast<std::int64_t>(aux_before));
  stats_.appends.inc();
  stats_.append_points.inc(pts.size());
  stats_.delta_ops.record(static_cast<double>(out->ops.size()));
  stats_.append_ms.record(append_ms);
  if (out->rebuilt) {
    stats_.rebuilds.inc();
    stats_.rebuild_ms.record(out->rebuild_ms);
    (entry->backend == exec::BackendKind::kPram ? stats_.rebuild_pram
                                                : stats_.rebuild_native)
        .inc();
    stats_.fold_pram(out->rebuild_metrics);
    if (out->rebuild_mismatch) stats_.rebuild_mismatch.inc();
  }
  if (flight_ != nullptr) {
    // One kind="session" trace per append: a session_append root plus a
    // rebuild child iff this append rebuilt (manager.h reconciliation
    // contract). The rebuild runs at the tail of the append, so its
    // span is placed as the trailing rebuild_ms of the root — measured
    // duration, approximated position.
    obs::CompletedTrace t;
    t.trace_id = flight_->stamp_trace_id();
    t.request_id = sid;
    t.kind = "session";
    t.backend = exec::backend_name(entry->backend);
    t.batch_size = pts.size();
    t.e2e_ms = append_ms;
    const std::uint64_t start = steady_ns(t0);
    const std::uint64_t end = steady_ns(done);
    t.spans.reserve(out->rebuilt ? 2 : 1);
    t.spans.push_back({"session_append", obs::kRootSpanId, 0, start, end});
    if (out->rebuilt) {
      const std::uint64_t rb_ns =
          static_cast<std::uint64_t>(out->rebuild_ms * 1e6);
      const std::uint64_t rb_start =
          end > start + rb_ns ? end - rb_ns : start;
      t.spans.push_back({"rebuild", obs::kRootSpanId + 1, obs::kRootSpanId,
                         rb_start, end});
    }
    flight_->publish(std::move(t));
  }
  return SessionStatus::kOk;
}

SessionStatus SessionManager::close(std::uint64_t sid, CloseSummary* out) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (sid == 0 || sid >= next_sid_) {
      stats_.rejected_unknown.inc();
      return SessionStatus::kUnknownSession;
    }
    auto it = live_.find(sid);
    if (it == live_.end()) {
      stats_.rejected_closed.inc();
      return SessionStatus::kSessionClosed;
    }
    entry = it->second;
    live_.erase(it);
    stats_.live_sessions.set(static_cast<std::int64_t>(live_.size()));
  }
  std::uint64_t final_aux = 0;
  {
    std::lock_guard<std::mutex> lk(entry->mu);
    entry->closed = true;
    const HullSession& s = entry->session;
    out->points_seen = s.points_seen();
    out->appends = s.appends();
    out->rebuilds = s.rebuilds();
    out->rebuild_mismatches = s.rebuild_mismatches();
    out->peak_aux_cells = s.ledger().peak_aux;
    out->upper_size = s.upper_size();
    out->lower_size = s.lower_size();
    final_aux = s.ledger().aux_cells;
  }
  stats_.aux_cells.add(-static_cast<std::int64_t>(final_aux));
  stats_.peak_aux_cells.record(static_cast<double>(out->peak_aux_cells));
  stats_.closed.inc();
  return SessionStatus::kOk;
}

std::size_t SessionManager::live() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_.size();
}

}  // namespace iph::session
