#include "trace/chrome_trace.h"

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace iph::trace {

namespace {

constexpr int kPid = 1;
constexpr int kTidWall = 1;
constexpr int kTidPram = 2;

Json meta_event(const char* name, int tid, const char* value) {
  Json e = Json::object();
  e["ph"] = "M";
  e["pid"] = kPid;
  e["tid"] = tid;
  e["name"] = name;
  Json args = Json::object();
  args["name"] = value;
  e["args"] = std::move(args);
  return e;
}

Json span_event(const std::string& name, int tid, double ts_us,
                double dur_us, std::uint64_t open_step,
                std::uint64_t close_step) {
  Json e = Json::object();
  e["ph"] = "X";
  e["pid"] = kPid;
  e["tid"] = tid;
  e["name"] = name;
  e["ts"] = ts_us;
  e["dur"] = dur_us;
  Json args = Json::object();
  args["pram_step_open"] = open_step;
  args["pram_step_close"] = close_step;
  args["pram_steps"] = close_step - open_step;
  e["args"] = std::move(args);
  return e;
}

/// Counter sample ("C" event) on the PRAM virtual-time axis: ts is the
/// PRAM step (1us = 1 step, matching the tid-2 span track), args carries
/// one value per series of the named counter track.
Json counter_event(const char* name, double ts_us,
                   std::initializer_list<std::pair<const char*, double>>
                       series) {
  Json e = Json::object();
  e["ph"] = "C";
  e["pid"] = kPid;
  e["name"] = name;
  e["ts"] = ts_us;
  Json args = Json::object();
  for (const auto& [key, value] : series) args[key] = value;
  e["args"] = std::move(args);
  return e;
}

}  // namespace

Json chrome_trace_json(const Recorder& rec) {
  Json events = Json::array();
  events.push_back(meta_event("process_name", kTidWall, "iph pram::Machine"));
  events.push_back(meta_event("thread_name", kTidWall, "wall clock"));
  events.push_back(
      meta_event("thread_name", kTidPram, "PRAM virtual time (1us = 1 step)"));

  // Spans in close order; phases still open when the log ended (cap hit
  // mid-phase) close at the last stamp so the export stays loadable.
  match_phases(
      rec.events(),
      [](std::size_t, std::size_t, const TraceEvent&) { return true; },
      [&](std::size_t, const TraceEvent& open, const TraceEvent& at) {
        events.push_back(span_event(open.name, kTidWall, open.wall_us,
                                    at.wall_us - open.wall_us, open.step,
                                    at.step));
        events.push_back(span_event(open.name, kTidPram,
                                    static_cast<double>(open.step),
                                    static_cast<double>(at.step - open.step),
                                    open.step, at.step));
      });

  // Utilization + space counter tracks against PRAM virtual time, one
  // sample per timeline bucket (see Recorder::timeline). The viewer
  // renders these as stacked counter tracks above the span rows.
  for (const UtilSample& b : rec.timeline()) {
    const double ts = static_cast<double>(b.step_begin);
    const double mean =
        b.steps > 0
            ? static_cast<double>(b.active_sum) / static_cast<double>(b.steps)
            : 0.0;
    events.push_back(counter_event(
        "active processors", ts,
        {{"max", static_cast<double>(b.active_max)}, {"mean", mean}}));
    events.push_back(counter_event(
        "workspace cells", ts,
        {{"aux", static_cast<double>(b.aux_max)},
         {"live", static_cast<double>(b.live_max)}}));
  }

  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  if (rec.dropped_events() > 0) doc["dropped_events"] = rec.dropped_events();
  return doc;
}

void write_chrome_trace(const Recorder& rec, std::ostream& os) {
  os << chrome_trace_json(rec).dump(1) << '\n';
}

}  // namespace iph::trace
