// Per-phase trace recorder for the PRAM simulator.
//
// A Recorder implements pram::PhaseObserver: attach one to a Machine
// (attach(), or Machine::set_observer) and every Machine::Phase
// open/close, every synchronous step, and every analytic charge() is
// folded into
//
//   * an AGGREGATED PHASE TREE — nodes keyed by (parent, name), merged
//     across re-entries, carrying PRAM steps, work, peak active
//     processors, combining-write conflicts, direct (own, non-child)
//     steps, invocation counts, and accumulated wall-clock; and
//   * a BOUNDED EVENT LOG — the first kMaxEvents raw open/close events
//     with wall and PRAM-step stamps, from which chrome_trace.h renders
//     a timeline (events past the cap are counted, not stored).
//
// All callbacks run on the host thread between steps, so the recorder
// needs no locking, and everything it records except the wall_ns /
// wall_us fields is a pure function of (input, seed) — bit-identical
// across hardware thread counts (trace_test locks this in).
//
// The implicit root node aggregates the whole run; steps issued while no
// phase is open land in root.direct_steps — `anonymous_steps()` — which
// the phase-coverage audit asserts to be zero for the core algorithms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pram/machine.h"

namespace iph::trace {

/// One node of the aggregated phase tree.
struct PhaseStats {
  std::string name;               ///< "" for the root.
  std::uint64_t invocations = 0;  ///< Times this (parent, name) opened.
  std::uint64_t steps = 0;        ///< PRAM steps, children included.
  std::uint64_t work = 0;         ///< PRAM work, children included.
  std::uint64_t max_active = 0;   ///< Peak active processors in any step.
  std::uint64_t cw_conflicts = 0; ///< Combining-write conflicts.
  std::uint64_t direct_steps = 0; ///< Steps while this node was innermost.
  std::uint64_t peak_live = 0;    ///< Peak live cells (input + aux) while open.
  std::uint64_t peak_aux = 0;     ///< Peak auxiliary cells while open.
  std::uint64_t first_open_step = 0;  ///< Machine step index at first open.
  double wall_ns = 0;             ///< Accumulated host wall-clock.
  std::vector<std::unique_ptr<PhaseStats>> children;  // insertion order

  /// Child by name, or nullptr. Path lookup: child("a")->child("b").
  const PhaseStats* child(std::string_view child_name) const noexcept;
};

/// One bucket of the downsampled per-step utilization/space timeline.
/// Each bucket covers `timeline_stride()` consecutive PRAM steps starting
/// at step_begin; `steps` of them actually executed (the open tail bucket
/// may be partial). Every field is a pure function of (input, seed).
struct UtilSample {
  std::uint64_t step_begin = 0;  ///< First PRAM step the bucket covers.
  std::uint64_t steps = 0;       ///< Steps recorded into the bucket.
  std::uint64_t active_max = 0;  ///< Peak active processors in the bucket.
  std::uint64_t active_sum = 0;  ///< Work in the bucket (mean = sum/steps).
  std::uint64_t live_max = 0;    ///< Peak live ledger cells in the bucket.
  std::uint64_t aux_max = 0;     ///< Peak auxiliary ledger cells.
};

/// One raw phase event, for timeline export.
struct TraceEvent {
  enum class Kind : std::uint8_t { kOpen, kClose };
  Kind kind = Kind::kOpen;
  std::string name;        ///< Set for kOpen only.
  std::uint64_t step = 0;  ///< Machine step index at the event.
  double wall_us = 0;      ///< Microseconds since the recorder's epoch.
};

/// `parent` of a phase opened at the top level of match_phases' walk.
inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// The one open/close matcher over an event log (chrome_trace.h and
/// obs/phase_link.h both render phases from it). Walks `events` in
/// order, calling
///   on_open(ordinal, parent, open) -> bool  for each open event:
///       `ordinal` numbers the opens from 0 and `parent` is the ordinal
///       of the innermost phase still open (kNoParent if none);
///       returning false stops the walk at this event;
///   on_close(ordinal, open, at)             when phase `ordinal` closes
///       at event `at`.
/// An unmatched close (a sliced or truncated log) is skipped; phases
/// still open when the walk ends close innermost first at the last
/// event walked.
template <class OnOpen, class OnClose>
void match_phases(std::span<const TraceEvent> events, OnOpen&& on_open,
                  OnClose&& on_close) {
  struct Open {
    std::size_t ordinal;
    const TraceEvent* event;
  };
  std::vector<Open> open;
  std::size_t next = 0;
  const TraceEvent* last = nullptr;
  for (const TraceEvent& e : events) {
    last = &e;
    if (e.kind == TraceEvent::Kind::kOpen) {
      if (!on_open(next, open.empty() ? kNoParent : open.back().ordinal, e)) {
        break;
      }
      open.push_back({next++, &e});
    } else if (!open.empty()) {
      on_close(open.back().ordinal, *open.back().event, e);
      open.pop_back();
    }
  }
  for (; !open.empty(); open.pop_back()) {
    on_close(open.back().ordinal, *open.back().event, *last);
  }
}

class Recorder final : public pram::PhaseObserver {
 public:
  /// Event-log cap; the aggregated tree is never truncated.
  static constexpr std::size_t kMaxEvents = 1u << 16;
  /// Utilization-timeline bucket cap: when full, adjacent buckets are
  /// pair-merged and the stride doubles, so memory stays bounded while
  /// the whole run remains covered (downsampling, not truncation).
  static constexpr std::size_t kMaxTimeline = 2048;
  /// Active-processor histogram buckets: [0] counts idle steps
  /// (active == 0), bucket b >= 1 counts steps with
  /// 2^(b-1) <= active < 2^b.
  static constexpr std::size_t kHistBuckets = 66;

  Recorder();
  ~Recorder() override;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Attach to a machine: set_observer(this) + conflict counting on.
  void attach(pram::Machine& m) { m.set_observer(this); }

  // pram::PhaseObserver
  void on_phase_open(const std::string& name,
                     std::uint64_t step_index) override;
  void on_phase_close(std::uint64_t step_index) override;
  void on_step(std::uint64_t active, std::uint64_t conflicts) override;
  void on_charge(std::uint64_t steps, std::uint64_t work_per_step) override;
  void on_space(std::uint64_t input_cells, std::uint64_t aux_cells) override;

  const PhaseStats& root() const noexcept { return root_; }
  /// Steps (incl. charges) recorded while no named phase was open.
  std::uint64_t anonymous_steps() const noexcept {
    return root_.direct_steps;
  }
  /// Deepest phase nesting seen.
  std::size_t max_depth() const noexcept { return max_depth_; }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  /// Events beyond kMaxEvents that were counted but not stored.
  std::uint64_t dropped_events() const noexcept { return dropped_events_; }
  /// steady_clock::time_since_epoch at construction, in ns. Lets
  /// consumers (iph::obs phase-span linkage) convert an event's
  /// wall_us offset back to the absolute steady-clock timeline:
  /// absolute_ns = epoch_ns() + wall_us * 1000.
  std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }
  /// True iff every open has been matched by a close (i.e. between runs).
  bool quiescent() const noexcept { return open_.size() == 1; }

  // --- per-step utilization / space timeline ---
  /// Downsampled series covering every PRAM step recorded so far (the
  /// last bucket may still be filling). At most kMaxTimeline buckets.
  const std::vector<UtilSample>& timeline() const noexcept {
    return timeline_;
  }
  /// PRAM steps per timeline bucket (doubles on each pair-merge).
  std::uint64_t timeline_stride() const noexcept { return stride_; }
  /// Log2 histogram of active-processor counts over all recorded steps
  /// (see kHistBuckets for the bucketing).
  const std::array<std::uint64_t, kHistBuckets>& active_histogram()
      const noexcept {
    return active_hist_;
  }
  /// Current space-ledger gauges as mirrored from on_space.
  std::uint64_t cur_input_cells() const noexcept { return cur_input_; }
  std::uint64_t cur_aux_cells() const noexcept { return cur_aux_; }

 private:
  struct Frame {
    PhaseStats* node;
    double wall_open_ns;
  };

  void push_event(TraceEvent::Kind kind, const std::string& name,
                  std::uint64_t step);
  double now_ns() const;
  /// Record `count` uniform steps of `active` processors into the
  /// timeline + histogram (count > 1 only from on_charge).
  void bump_timeline(std::uint64_t count, std::uint64_t active);
  /// Make timeline_.back() the bucket covering pram_step_, pair-merging
  /// when the cap is hit.
  void ensure_bucket();

  PhaseStats root_;
  std::vector<Frame> open_;  ///< Innermost last; [0] is the root.
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_events_ = 0;
  std::size_t max_depth_ = 0;
  std::uint64_t epoch_ns_ = 0;  ///< steady_clock at construction.

  std::vector<UtilSample> timeline_;
  std::uint64_t stride_ = 1;     ///< PRAM steps per timeline bucket.
  std::uint64_t pram_step_ = 0;  ///< Steps recorded (timeline cursor).
  std::array<std::uint64_t, kHistBuckets> active_hist_{};
  std::uint64_t cur_input_ = 0;  ///< Ledger gauge mirror (on_space).
  std::uint64_t cur_aux_ = 0;    ///< Ledger gauge mirror (on_space).
};

}  // namespace iph::trace
