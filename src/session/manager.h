// SessionManager — the concurrent front door to streaming hull
// sessions.
//
// Owns the live-session table (monotonic ids so "never existed" and
// "already closed" stay distinguishable for the wire layer), the
// admission cap, the PRAM rebuild machine, and the SessionStats bundle.
// hullserved keeps exactly one of these next to its HullService and
// routes session_open/append/close wire commands here; batch requests
// keep flowing through the service untouched.
//
// Concurrency model: the table mutex covers only id allocation and
// lookup; each session carries its own mutex, so appends on different
// sessions run in parallel. Rebuilds on native-backend sessions run on
// the caller's NativeBackend (its upper_hull is thread-safe; hullserved
// passes its service's, so a process runs one native thread pool);
// pram-backend sessions serialize on the manager's single owned
// pram::Machine — the simulator demands exclusive access, and rebuild
// audits are rare by construction (pending_limit / staleness_limit),
// so one machine is plenty.
//
// Close-vs-append race: close() removes the entry from the table, then
// takes the session mutex and marks the entry closed; an append that
// already held a table reference re-checks the closed flag under the
// session mutex and reports kSessionClosed. The aux-cells gauge is
// therefore exact: each entry's ledger delta is published under its
// session mutex, and close subtracts the final level once.
//
// Stats discipline: every counter/gauge/histogram update for an
// operation lands BEFORE the call returns, so the wire layer replies
// strictly after the registry has settled (scrape reconciliation).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "exec/backend.h"
#include "exec/native_backend.h"
#include "obs/flight_recorder.h"
#include "pram/machine.h"
#include "session/session.h"
#include "session/stats.h"
#include "stats/stats.h"

namespace iph::session {

struct ManagerConfig {
  /// Admission cap on concurrently live sessions.
  std::size_t max_sessions = 64;
  /// Per-append point cap (oversized appends are rejected whole).
  std::size_t max_append_points = std::size_t{1} << 16;
  /// Per-session policy (pending_limit / staleness_limit / alpha; the
  /// manager fills `seed` per session from `master_seed`).
  SessionConfig session;
  /// Rebuild engine for sessions that open with kDefault.
  exec::BackendKind default_backend = exec::BackendKind::kNative;
  std::uint64_t master_seed = 0x19910722ULL;
};

enum class SessionStatus : std::uint8_t {
  kOk = 0,
  kRejectedCap,     ///< open: live-session cap reached
  kUnknownSession,  ///< append/close: id was never issued
  kSessionClosed,   ///< append/close: id was issued and already closed
  kOversizedAppend, ///< append: batch exceeds max_append_points
};

const char* session_status_name(SessionStatus s) noexcept;

struct OpenInfo {
  std::uint64_t sid = 0;
  exec::BackendKind backend = exec::BackendKind::kDefault;  ///< resolved
};

/// End-of-life accounting returned by close (and surfaced on the wire).
struct CloseSummary {
  std::uint64_t points_seen = 0;
  std::uint64_t appends = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuild_mismatches = 0;
  std::uint64_t peak_aux_cells = 0;  ///< session ledger watermark
  std::uint64_t upper_size = 0;
  std::uint64_t lower_size = 0;
};

class SessionManager {
 public:
  /// `native` (non-owning, must outlive the manager) runs the rebuilds
  /// of native-backend sessions. `flight` (optional, non-owning, must
  /// outlive the manager) receives a kind="session" trace per append —
  /// a session_append root plus a rebuild child iff the append rebuilt,
  /// so iph_obs_spans_recorded_total{kind=session} == appends +
  /// rebuilds (the scrape-reconciliation identity hullload --stream
  /// checks).
  /// hullserved passes its service's flight recorder so request and
  /// session traces share one tracez ring.
  SessionManager(const ManagerConfig& cfg, exec::NativeBackend& native,
                 stats::Registry& registry,
                 obs::FlightRecorder* flight = nullptr);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Open a session whose rebuilds run on `want` (kDefault resolves to
  /// cfg.default_backend). kOk fills `out`; kRejectedCap otherwise.
  SessionStatus open(exec::BackendKind want, OpenInfo* out);

  /// Append a batch; on kOk fills `out` with the delta. Rejections
  /// (unknown/closed/oversized) leave the session untouched.
  SessionStatus append(std::uint64_t sid, std::span<const geom::Point2> pts,
                       AppendResult* out);

  SessionStatus close(std::uint64_t sid, CloseSummary* out);

  std::size_t live() const;
  SessionStats& stats() noexcept { return stats_; }
  const ManagerConfig& config() const noexcept { return cfg_; }

 private:
  struct Entry {
    explicit Entry(const SessionConfig& sc) : session(sc) {}
    std::mutex mu;
    HullSession session;
    exec::BackendKind backend = exec::BackendKind::kNative;
    bool closed = false;
  };

  ManagerConfig cfg_;
  SessionStats stats_;
  obs::FlightRecorder* flight_ = nullptr;  ///< May be null (no tracing).
  exec::NativeBackend& native_;
  pram::Machine machine_;
  std::mutex machine_mu_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> live_;
  std::uint64_t next_sid_ = 1;
};

}  // namespace iph::session
