#include "obs/phase_link.h"

#include <algorithm>

namespace iph::obs {

std::vector<Span> phase_spans_from_events(
    const trace::Recorder* rec, std::pair<std::size_t, std::size_t> range,
    std::uint32_t parent_id, bool* truncated) {
  std::vector<Span> out;
  if (rec == nullptr) return out;
  const auto& events = rec->events();
  const std::size_t begin = range.first;
  const std::size_t end = std::min(range.second, events.size());
  if (begin >= end) return out;
  const std::uint64_t epoch = rec->epoch_ns();
  const auto abs_ns = [epoch](double wall_us) {
    return wall_us <= 0 ? epoch
                        : epoch + static_cast<std::uint64_t>(wall_us * 1e3);
  };

  // Span i is the slice's i-th open, so ids follow ordinals; the parent
  // of a top-level phase is the caller's exec span. Hitting the cap
  // stops the walk, and the still-open phases close at that stamp.
  trace::match_phases(
      std::span<const trace::TraceEvent>(events).subspan(begin, end - begin),
      [&](std::size_t ordinal, std::size_t parent,
          const trace::TraceEvent& e) {
        if (out.size() >= kMaxPhaseSpans) {
          if (truncated != nullptr) *truncated = true;
          return false;
        }
        Span s;
        s.name = intern_name(e.name);
        s.span_id = kFirstPhaseSpanId + static_cast<std::uint32_t>(ordinal);
        s.parent_id = parent == trace::kNoParent
                          ? parent_id
                          : kFirstPhaseSpanId +
                                static_cast<std::uint32_t>(parent);
        s.start_ns = abs_ns(e.wall_us);
        s.end_ns = s.start_ns;  // patched at close
        out.push_back(s);
        return true;
      },
      [&](std::size_t ordinal, const trace::TraceEvent&,
          const trace::TraceEvent& at) {
        out[ordinal].end_ns = abs_ns(at.wall_us);
      });
  // The recorder itself drops events past its cap; a dropped tail means
  // the tree is incomplete even if we never hit kMaxPhaseSpans.
  if (truncated != nullptr && rec->dropped_events() > 0) *truncated = true;
  return out;
}

}  // namespace iph::obs
