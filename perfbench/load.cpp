// serve-mixed / routed workloads: the benchmark's own open-loop client.
//
// Traffic (all inline "points", seeded): native n=64 in_disk queries
// with every eighth query a PRAM n=64 query, Poisson arrivals at
// kQueryRate, spread over kConns query connections; and 16-point
// session appends at kAppendRate on their own connection (common.h).
// Every request line is built before the clock starts; one sender thread
// writes each line when it falls due, a reader thread per connection
// stamps each reply.
// Latency runs from when the operation was due, so a stalled generator
// shows up as latency (and as client.late_p99_ms), never hides.
//
// After the run, outside the timed region: every query hull is compared
// with seq's hull of the points sent, every PRAM query's step/work
// counters with a local exec::PramBackend replay under the served seed,
// and the session's replayed deltas with the seq oracle of every
// appended point. The server's statz diff must reconcile with the
// client's own tally.
//
// ACKs: the servers write replies with Nagle's algorithm on, so a reply
// sent while the previous one is still unacknowledged waits for the
// client's ACK. With the kernel's default delayed ACKs that ACK rides on
// the client's next request, and latency then measures the arrival
// process rather than the server — in some runs and not others. The
// timed phases therefore re-arm TCP_QUICKACK before every read; the
// traced run measures the default behaviour on its own
// (wire.delayed_ack_query_p50_ms).
//
// With --trace 1 the run is split in three: untraced (the base of
// bench.trace_overhead), untraced with default ACKs, and traced — its
// requests carry client trace ids, and its spans are joined to the
// servers' tracez spans by id.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/stats.h"
#include "common.h"
#include "exec/pram_backend.h"
#include "geom/workloads.h"
#include "obs/context.h"
#include "obs/flight_recorder.h"
#include "pram/machine.h"
#include "seq/upper_hull.h"
#include "serve/stats.h"
#include "serve_wire.h"
#include "session/stats.h"
#include "support/rng.h"

namespace perfbench {

namespace {

using iph::stats::labeled;
using iph::stats::RegistrySnapshot;
using iph::support::mix3;
using trace::Json;

constexpr std::size_t kQueryN = 64;
constexpr std::size_t kAppendN = 16;
constexpr double kDrainS = 5.0;   // reply deadline after the last due time

enum class Kind : std::uint8_t { kNative, kPram, kAppend };

struct Op {
  Kind kind = Kind::kNative;
  std::int64_t due = 0, sent = 0, recv = 0;
  std::vector<geom::Point2> pts;
  std::uint64_t trace_id = 0;  ///< 0 = untraced
  std::string line, reply;
  bool answered = false;
};

int dial(const std::string& target) {
  const auto colon = target.rfind(':');
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::atoi(target.substr(colon + 1).c_str())));
  if (colon == std::string::npos ||
      ::inet_pton(AF_INET, target.substr(0, colon).c_str(), &addr.sin_addr) != 1) {
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One client connection: a socket plus its read and write channels.
struct Conn {
  int fd = -1;
  std::unique_ptr<iph::support::LineChannel> in, out;
  std::vector<Op*> ops;  ///< this run's operations, due order

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(const std::string& target) {
    fd = dial(target);
    if (fd < 0) return false;
    in = std::make_unique<iph::support::LineChannel>(fd, fd);
    out = std::make_unique<iph::support::LineChannel>(fd, fd);
    return true;
  }
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  /// Ask the kernel to acknowledge the next reply at once instead of
  /// delaying the ACK (re-armed before every read: the kernel drops
  /// back to delayed ACKs on its own).
  bool quickack = true;
  void ack_now() const {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  }
  /// Closed-loop command round trip (set-up, statz, tracez).
  bool call(const std::string& line, Json* reply) {
    std::string got, err;
    return out->write_line(line) && in->read_line(&got) &&
           Json::parse(got, reply, &err);
  }
};

void sleep_until_ns(std::int64_t t) {
  timespec ts{static_cast<time_t>(t / 1000000000),
              static_cast<long>(t % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

Json points_json(const std::vector<geom::Point2>& pts) {
  Json a = Json::array();
  for (const geom::Point2& p : pts) {
    Json e = Json::array();
    e.push_back(Json(p.x));
    e.push_back(Json(p.y));
    a.push_back(std::move(e));
  }
  return a;
}

/// Build one phase's seeded schedule: query ops (Poisson at kQueryRate,
/// every kPramEvery-th on the PRAM) and append ops (Poisson at
/// kAppendRate), due times relative to the phase start.
std::vector<std::unique_ptr<Op>> make_schedule(const Args& a, std::uint64_t phase,
                                               double seconds, bool traced,
                                               std::uint64_t sid,
                                               std::uint64_t* next_id) {
  std::vector<std::unique_ptr<Op>> ops;
  iph::support::Rng rng(a.seed, 0x5343 + phase);
  const auto poisson = [&](double rate, Kind k, std::uint64_t stream) {
    std::uint64_t i = 0;
    for (double t = 0;; ++i) {
      t += -std::log(1.0 - rng.next_double()) / rate;
      if (t >= seconds) break;
      auto op = std::make_unique<Op>();
      op->kind = k;
      op->due = static_cast<std::int64_t>(t * 1e9);
      const std::uint64_t gseed = mix3(a.seed, stream + phase, i);
      if (k == Kind::kAppend) {
        op->pts = geom::in_disk(kAppendN, gseed);
      } else {
        op->pts = geom::in_disk(kQueryN, gseed);
        if ((i + 1) % kPramEvery == 0) op->kind = Kind::kPram;
      }
      ops.push_back(std::move(op));
    }
  };
  poisson(kQueryRate, Kind::kNative, 0x51000);
  poisson(kAppendRate, Kind::kAppend, 0x41000);
  std::stable_sort(ops.begin(), ops.end(),
                   [](const auto& x, const auto& y) { return x->due < y->due; });
  for (auto& op : ops) {
    Json j = Json::object();
    if (op->kind == Kind::kAppend) {
      j["cmd"] = "session_append";
      j["sid"] = Json(sid);
    } else {
      j["id"] = Json((*next_id)++);
      j["backend"] = op->kind == Kind::kPram ? "pram" : "native";
    }
    j["points"] = points_json(op->pts);
    if (traced && op->kind != Kind::kAppend) {
      op->trace_id = mix3(a.seed, 0x7472 + phase, *next_id) | 1;
      Json t = Json::object();
      t["id"] = iph::obs::to_hex(op->trace_id);
      j["trace"] = std::move(t);
    }
    op->line = j.dump();
  }
  return ops;
}

/// Send and receive one phase: each connection's operations go out when
/// due; replies still missing kDrainS after the last due time are given
/// up on (their operations stay unanswered).
void drive(std::vector<std::unique_ptr<Conn>>& conns, std::int64_t last_due) {
  // One sender for every connection, in due order.
  std::vector<std::pair<Op*, Conn*>> sends;
  for (auto& c : conns) {
    for (Op* op : c->ops) sends.emplace_back(op, c.get());
  }
  std::stable_sort(sends.begin(), sends.end(), [](const auto& x, const auto& y) {
    return x.first->due < y.first->due;
  });
  std::vector<std::thread> threads;
  std::vector<int> done(conns.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  threads.emplace_back([&sends] {
    for (auto [op, conn] : sends) {
      sleep_until_ns(op->due);
      op->sent = now_ns();
      if (!conn->out->write_line(op->line)) return;
    }
  });
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      Conn& cn = *conns[c];
      std::string line;
      for (Op* op : cn.ops) {
        if (cn.quickack) cn.ack_now();
        if (!cn.in->read_line(&line)) break;
        op->recv = now_ns();
        op->reply = std::move(line);
        op->answered = true;
      }
      std::lock_guard<std::mutex> lk(mu);
      done[c] = 1;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    const auto deadline =
        Clock::time_point(std::chrono::nanoseconds(last_due)) +
        std::chrono::milliseconds(static_cast<int>(kDrainS * 1000));
    cv.wait_until(lk, deadline, [&] {
      return std::all_of(done.begin(), done.end(), [](int d) { return d; });
    });
    for (std::size_t c = 0; c < conns.size(); ++c) {
      // A connection still missing replies: unblock its reader; the
      // missing replies count as failed operations.
      if (!done[c]) ::shutdown(conns[c]->fd, SHUT_RDWR);
    }
  }
  for (auto& t : threads) t.join();
}

/// Per-phase tallies, filled by check().
struct Tally {
  std::vector<Sample> native_ms, pram_ms, append_ms;  // from due
  std::vector<Sample> exec_ms;  // native queries' server engine time
  std::vector<double> late_ms;
  std::vector<double> qw[2], ex[2], e2e[2], batch[2];  // [native, pram]
  std::vector<double> outside_ms, steps, work, hull_size;
  std::uint64_t queries = 0, appends = 0;
  std::uint64_t ok = 0;  ///< queries answered "ok", checked or not
};

class Client {
 public:
  Client(const Args& a, Result& res) : a_(a), res_(res), machine_(1) {}

  bool setup() {
    for (int c = 0; c <= kConns; ++c) {
      conns_.push_back(std::make_unique<Conn>());
      if (!conns_.back()->open(a_.target)) return false;
    }
    if (!ctl_.open(a_.target)) return false;
    Json r;
    if (!conns_.back()->call(R"({"cmd":"session_open"})", &r) ||
        r.get_str("status") != "ok") {
      return false;
    }
    sid_ = static_cast<std::uint64_t>(r.get_num("sid"));
    // Warm every query connection (a router dials its backends lazily).
    for (int c = 0; c < kConns; ++c) {
      for (const char* b : {"native", "pram"}) {
        Json j = Json::object();
        j["id"] = Json(next_id_++);
        j["backend"] = b;
        j["points"] = points_json(geom::in_disk(kQueryN, next_id_));
        if (!conns_[c]->call(j.dump(), &r) || r.get_str("status") != "ok") {
          return false;
        }
      }
    }
    return true;
  }

  bool statz(RegistrySnapshot* s) {
    Json r;
    std::string err;
    if (!ctl_.call(R"({"cmd":"statz"})", &r)) return false;
    if (const Json* f = r.find("fleet")) {  // a router sums its backends
      routed_ = true;
      backends_ = static_cast<int>(f->get_num("backends", 1));
    }
    return iph::tools::statz_from_json(r, s, &err);
  }

  int backends() const { return backends_; }

  /// One timed phase; returns its tally.
  Tally phase(std::uint64_t index, double seconds, bool traced, bool quickack,
              RegistrySnapshot* diff, double* elapsed_s) {
    std::vector<std::unique_ptr<Op>> ops =
        make_schedule(a_, index, seconds, traced, sid_, &next_id_);
    for (auto& c : conns_) {
      c->ops.clear();
      c->quickack = quickack;
    }
    std::size_t q = 0;
    for (auto& op : ops) {
      if (op->kind == Kind::kAppend) {
        conns_.back()->ops.push_back(op.get());
      } else {
        conns_[q++ % kConns]->ops.push_back(op.get());
      }
    }
    RegistrySnapshot before, after;
    if (!statz(&before)) res_.invalidate("statz before the run failed");
    const std::int64_t t0 = now_ns() + 20'000'000;
    for (auto& op : ops) op->due += t0;
    drive(conns_, ops.empty() ? t0 : ops.back()->due);
    *elapsed_s = ms(now_ns() - t0) / 1e3;
    if (!statz(&after)) res_.invalidate("statz after the run failed");
    *diff = after.diff(before);
    Tally t = check(ops);
    reconcile(t, *diff);
    if (traced) join(ops);
    phase_ops_ = std::move(ops);
    return t;
  }

  /// Close the session and compare the replayed chains to the oracle.
  void finish() {
    Json r;
    Json j = Json::object();
    j["cmd"] = "session_close";
    j["sid"] = Json(sid_);
    if (!conns_.back()->call(j.dump(), &r) || r.get_str("status") != "ok") {
      res_.fail("session_close failed");
      return;
    }
    if (const Json* s = r.find("summary")) {
      res_.metrics["session.peak_aux_cells"] = s->get_num("peak_aux_cells");
      if (s->get_num("mismatches") != 0) res_.fail("session rebuild mismatch");
    }
    std::vector<geom::Point2> up, lo;
    oracle_chains(appended_, &up, &lo);
    if (up != shadow_[0] || lo != shadow_[1]) {
      res_.fail("replayed session chains differ from the seq oracle");
    }
  }

  /// Wire codec cost on the last phase's own lines (median per line).
  void wire_metrics() {
    std::vector<double> dec, enc, req_b, resp_b;
    for (const auto& op : phase_ops_) {
      if (op->kind != Kind::kNative || !op->answered) continue;
      iph::serve::Request req;
      bool ea = false;
      std::string err;
      Json j;
      const std::int64_t d0 = now_ns();
      const bool ok = Json::parse(op->line, &j, &err) &&
                      iph::tools::request_from_json(j, &req, &ea, &err);
      const std::int64_t d1 = now_ns();
      Json r;
      if (!ok || !Json::parse(op->reply, &r, &err)) continue;
      iph::serve::Response resp;
      resp.id = req.id;
      if (const Json* h = r.find("hull")) {
        for (const Json& v : h->items()) {
          resp.hull.upper.vertices.push_back(static_cast<geom::Index>(v.as_double()));
        }
      }
      const Json* m = r.find("metrics");
      if (m != nullptr) {
        resp.metrics.queue_wait_ms = m->get_num("queue_wait_ms");
        resp.metrics.exec_ms = m->get_num("exec_ms");
        resp.metrics.e2e_ms = m->get_num("e2e_ms");
        resp.metrics.batch_size = static_cast<std::uint64_t>(m->get_num("batch_size"));
      }
      resp.metrics.backend = iph::exec::BackendKind::kNative;
      resp.trace.trace_id = op->trace_id;
      const std::int64_t e0 = now_ns();
      const std::string line = iph::tools::response_to_json(resp, false).dump();
      const std::int64_t e1 = now_ns();
      dec.push_back(static_cast<double>(d1 - d0) / 1e3);
      enc.push_back(static_cast<double>(e1 - e0) / 1e3);
      req_b.push_back(static_cast<double>(op->line.size() + 1));
      resp_b.push_back(static_cast<double>(op->reply.size() + 1));
    }
    auto& m = res_.metrics;
    m["wire.decode_us"] = quantile(dec, 0.5);
    m["wire.encode_us"] = quantile(enc, 0.5);
    m["wire.request_bytes"] = mean(req_b);
    m["wire.response_bytes"] = mean(resp_b);
  }

  Json tracez() {
    Json r;
    ctl_.call(R"({"cmd":"tracez","limit":0})", &r);
    return r;
  }

  SpanLog& spans() { return log_; }
  std::uint64_t joined() const { return joined_; }
  double join_residual_us() const { return residual_us_; }

 private:
  Tally check(const std::vector<std::unique_ptr<Op>>& ops) {
    Tally t;
    bool corrupted = !a_.corrupt;
    for (const auto& op : ops) {
      ++res_.attempted;
      ++(op->kind == Kind::kAppend ? t.appends : t.queries);
      t.late_ms.push_back(ms(op->sent - op->due));
      Json r;
      std::string err;
      if (!op->answered || !Json::parse(op->reply, &r, &err) || !r.is_object()) {
        res_.fail(op->answered ? "unparsable reply: " + err : "no reply");
        continue;
      }
      const double lat = ms(op->recv - op->due);
      if (op->kind == Kind::kAppend) {
        check_append(r, *op, lat, t);
        continue;
      }
      if (r.get_str("status") != "ok") {
        res_.fail("query status " + r.get_str("status", r.get_str("error")));
        continue;
      }
      ++t.ok;
      std::vector<geom::Index> hull;
      if (const Json* h = r.find("hull")) {
        for (const Json& v : h->items()) hull.push_back(static_cast<geom::Index>(v.as_double()));
      }
      if (!corrupted && hull.size() > 2) {
        hull.erase(hull.begin() + 1);
        corrupted = true;
      }
      if (coords(op->pts, hull) != coords(op->pts, iph::seq::upper_hull(op->pts).vertices)) {
        res_.fail("served hull differs from the seq oracle");
        continue;
      }
      const Json* m = r.find("metrics");
      const bool pram = op->kind == Kind::kPram;
      if (m == nullptr || m->get_str("backend") != (pram ? "pram" : "native")) {
        res_.fail("reply ran on the wrong backend");
        continue;
      }
      if (pram && !pram_replay_ok(*op, *m)) {
        res_.fail("PRAM steps/work differ from the local replay");
        continue;
      }
      const int b = pram ? 1 : 0;
      t.qw[b].push_back(m->get_num("queue_wait_ms"));
      t.ex[b].push_back(m->get_num("exec_ms"));
      t.e2e[b].push_back(m->get_num("e2e_ms"));
      t.batch[b].push_back(m->get_num("batch_size"));
      if (pram) {
        t.pram_ms.push_back({op->due, lat});
        t.steps.push_back(m->get_num("steps"));
        t.work.push_back(m->get_num("work"));
      } else {
        t.native_ms.push_back({op->due, lat});
        t.exec_ms.push_back({op->due, m->get_num("exec_ms")});
        t.outside_ms.push_back(lat - m->get_num("e2e_ms"));
        t.hull_size.push_back(static_cast<double>(hull.size()));
      }
    }
    return t;
  }

  void check_append(const Json& r, const Op& op, double lat, Tally& t) {
    std::vector<iph::session::DeltaOp> delta;
    std::string err;
    if (r.get_str("status") != "ok" || !iph::tools::delta_from_json(r, &delta, &err)) {
      res_.fail("append status " + r.get_str("status", r.get_str("error")));
      return;
    }
    appended_.insert(appended_.end(), op.pts.begin(), op.pts.end());
    for (const auto& d : delta) {
      auto& c = shadow_[d.side == iph::session::Side::kUpper ? 0 : 1];
      if (d.pos + d.removed > c.size()) {
        res_.fail("session delta op out of range");
        return;
      }
      c.erase(c.begin() + d.pos, c.begin() + d.pos + d.removed);
      c.insert(c.begin() + d.pos, d.point);
    }
    t.append_ms.push_back({op.due, lat});
  }

  bool pram_replay_ok(const Op& op, const Json& m) {
    const std::uint64_t seed = std::strtoull(m.get_str("seed").c_str(), nullptr, 10);
    iph::exec::PramBackend pram(machine_);
    const iph::exec::HullRun run = pram.upper_hull(op.pts, seed, kAlpha);
    return static_cast<double>(run.metrics.steps) == m.get_num("steps") &&
           static_cast<double>(run.metrics.work) == m.get_num("work");
  }

  /// Exact identities between the client's tally and the statz diff.
  void reconcile(const Tally& t, const RegistrySnapshot& d) {
    namespace sn = iph::serve::statnames;
    const auto must = [&](const char* what, std::uint64_t server, std::uint64_t client) {
      if (server != client) {
        res_.invalidate(std::string(what) + ": server " + std::to_string(server) +
                        " != client " + std::to_string(client));
      }
    };
    must("submitted", d.counter_or0(sn::kSubmitted), t.queries);
    must("completed", d.counter_or0(sn::kCompleted), t.ok);
    must("traces published{kind=request}",
         d.counter_or0(labeled(iph::obs::statnames::kTracesPublishedBase, "kind", "request")),
         d.counter_or0(sn::kCompleted));
    must("session appends", d.counter_or0(iph::session::statnames::kAppends), t.appends);
    if (routed_) {
      must("router forwards", d.counter_or0(iph::cluster::statnames::kForwards), t.queries);
    }
  }

  /// Join the traced phase's client spans with the server span trees
  /// fetched from tracez, by trace id.
  void join(const std::vector<std::unique_ptr<Op>>& ops) {
    std::map<std::string, const Json*> server;
    const Json doc = tracez();
    const Json* tz = doc.find("tracez");
    if (tz == nullptr) {
      res_.invalidate("tracez failed");
      return;
    }
    res_.metrics["trace.recorder_held"] = tz->get_num("retained");
    if (const Json* list = tz->find("traces")) {
      for (const Json& tr : list->items()) server[tr.get_str("trace")] = &tr;
    }
    for (const auto& op : ops) {
      if (op->trace_id == 0 || !op->answered) continue;
      const std::uint32_t root = log_.add(
          op->kind == Kind::kPram ? "client.pram_query" : "client.query",
          op->trace_id, 0, op->due, op->recv);
      log_.add("client.late", op->trace_id, root, op->due, op->sent);
      const std::uint32_t wait = log_.add("client.wait", op->trace_id, root, op->sent, op->recv);
      const auto it = server.find(iph::obs::to_hex(op->trace_id));
      if (it == server.end()) continue;
      ++joined_;
      // tracez gives offsets from the server root; the root is centred
      // in the client's wait (the two hops around it are not split).
      const Json* spans = it->second->find("spans");
      double root_us = 0;
      for (const Json& s : spans->items()) {
        if (s.get_num("parent") == 0) root_us = s.get_num("dur_us");
      }
      const std::int64_t root_ns = static_cast<std::int64_t>(root_us * 1e3);
      const std::int64_t base = op->sent + std::max<std::int64_t>(0, (op->recv - op->sent - root_ns) / 2);
      std::map<std::uint64_t, std::uint32_t> ids;
      for (const Json& s : spans->items()) {
        const auto parent = static_cast<std::uint64_t>(s.get_num("parent"));
        if (parent != 0 && ids.count(parent) == 0) continue;  // phase spans
        const std::int64_t s0 = base + static_cast<std::int64_t>(s.get_num("start_us") * 1e3);
        const std::int64_t s1 = s0 + static_cast<std::int64_t>(s.get_num("dur_us") * 1e3);
        ids[static_cast<std::uint64_t>(s.get_num("span"))] =
            log_.add("server." + s.get_str("name"), op->trace_id,
                     parent == 0 ? wait : ids[parent], s0, s1);
      }
      // Self times must add back up to the client latency: only a
      // server tree longer than the client's wait could break that.
      const double over_us = static_cast<double>(root_ns - (op->recv - op->sent)) / 1e3;
      residual_us_ = std::max(residual_us_, std::max(0.0, over_us));
    }
  }

  const Args& a_;
  Result& res_;
  std::vector<std::unique_ptr<Conn>> conns_;  ///< queries..., appends
  Conn ctl_;
  std::uint64_t sid_ = 0;
  std::uint64_t next_id_ = 1;
  bool routed_ = false;  ///< the target is a hullrouter
  int backends_ = 1;
  iph::pram::Machine machine_;
  std::vector<std::unique_ptr<Op>> phase_ops_;
  std::vector<geom::Point2> appended_;
  std::vector<geom::Point2> shadow_[2];
  SpanLog log_;
  std::uint64_t joined_ = 0;
  double residual_us_ = 0;
};

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

double hist_p50(const RegistrySnapshot& d, const std::string& name) {
  const auto* h = d.histogram(name);
  return h != nullptr ? h->quantile(0.5) : 0;
}

/// The statz-derived per-layer metrics of one phase diff over
/// `backends` servers.
void statz_metrics(const RegistrySnapshot& d, double elapsed_s, int backends,
                   Result& res) {
  namespace sn = iph::serve::statnames;
  namespace ssn = iph::session::statnames;
  namespace csn = iph::cluster::statnames;
  namespace osn = iph::obs::statnames;
  auto& m = res.metrics;
  const std::uint64_t batches = d.counter_or0(sn::kBatches);
  for (const char* r : {"window", "requests", "points", "closed"}) {
    m[std::string("serve.batch_close.") + r] =
        share(d.counter_or0(labeled(sn::kBatchCloseBase, "reason", r)), batches);
  }
  std::uint64_t busy = 0, shards = 0;
  for (const auto& [name, v] : d.counters) {
    if (name.rfind(sn::kShardBusyBase, 0) == 0) {
      busy += v;
      ++shards;
    }
  }
  m["serve.shard_busy_share"] =
      shards ? static_cast<double>(busy) /
                   (elapsed_s * 1e6 * static_cast<double>(shards * backends))
             : 0;
  const std::uint64_t appends = d.counter_or0(ssn::kAppends);
  m["session.append_ms"] = hist_p50(d, ssn::kAppendMs);
  m["session.rebuild_ms"] = hist_p50(d, ssn::kRebuildMs);
  m["session.rebuilds_per_1k_appends"] = 1000.0 * share(d.counter_or0(ssn::kRebuilds), appends);
  const auto* dops = d.histogram(ssn::kDeltaOps);
  m["session.delta_ops_per_append"] = dops && dops->count ? dops->sum / static_cast<double>(dops->count) : 0;
  std::uint64_t retries = 0, routes = 0, max_route = 0, spans = 0;
  for (const auto& [name, v] : d.counters) {
    if (name.rfind(csn::kRetriesBase, 0) == 0) retries += v;
    if (name.rfind(csn::kRoutesBase, 0) == 0) {
      routes += v;
      max_route = std::max(max_route, v);
    }
    if (name.rfind(osn::kSpansRecordedBase, 0) == 0) spans += v;
  }
  m["cluster.forward_ms"] = hist_p50(d, csn::kForwardMs);
  m["cluster.hop_ms"] = m["cluster.forward_ms"] > 0 ? m["cluster.forward_ms"] - hist_p50(d, sn::kE2eMs) : 0;
  m["cluster.retries"] = static_cast<double>(retries);
  m["cluster.max_shard_share"] = share(max_route, routes);
  m["obs.spans_dropped_share"] = share(d.counter_or0(osn::kSpansDropped), spans);
  const std::uint64_t published =
      d.counter_or0(labeled(osn::kTracesPublishedBase, "kind", "request"));
  m["obs.traces_published"] = static_cast<double>(published);
  m["obs.published_over_completed"] = share(published, d.counter_or0(sn::kCompleted));
}

}  // namespace

int run_load(const Args& a) {
  std::signal(SIGPIPE, SIG_IGN);
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake senders on time, not 50us late
  Result res;
  Client client(a, res);
  if (!client.setup()) {
    std::fprintf(stderr, "iphbench: cannot set up against %s\n", a.target.c_str());
    return 2;
  }
  // --trace 1 splits the run in three: untraced, untraced with the
  // kernel's default delayed ACKs, traced.
  const double part_s = a.trace ? a.seconds / 3 : a.seconds;
  RegistrySnapshot diff;
  double elapsed = 0;
  const Tally t = client.phase(0, part_s, false, true, &diff, &elapsed);
  auto& m = res.metrics;
  m["query_p50_ms"] = windowed_quantile(t.native_ms, 0.5);
  m["query_p90_ms"] = windowed_quantile(t.native_ms, 0.9);
  m["client.query_p99_ms"] = windowed_quantile(t.native_ms, 0.99);
  m["pram_query_p50_ms"] = windowed_quantile(t.pram_ms, 0.5);
  m["append_p50_ms"] = windowed_quantile(t.append_ms, 0.5);
  m["append_p99_ms"] = windowed_quantile(t.append_ms, 0.99);
  m["hull_p50_ms"] = windowed_quantile(t.exec_ms, 0.5);
  m["hull_p90_ms"] = windowed_quantile(t.exec_ms, 0.9);
  m["mpts_per_s"] = windowed_mpts(t.exec_ms, kQueryN);
  m["bench.samples"] = static_cast<double>(t.native_ms.size());
  m["pram.steps_per_query"] = mean(t.steps);
  m["pram.work_per_query"] = mean(t.work);
  if (a.trace) {
    const Tally da = client.phase(1, part_s, false, false, &diff, &elapsed);
    m["wire.delayed_ack_query_p50_ms"] = windowed_quantile(da.native_ms, 0.5);
    const Tally tr = client.phase(2, part_s, true, true, &diff, &elapsed);
    const double p50 = windowed_quantile(tr.native_ms, 0.5);
    m["bench.trace_overhead"] = m["query_p50_ms"] > 0 ? p50 / m["query_p50_ms"] : 0;
    m["client.late_p99_ms"] = quantile(tr.late_ms, 0.99);
    m["wire.outside_server_ms"] = quantile(tr.outside_ms, 0.5);
    const char* side[2] = {"native", "pram"};
    for (int b = 0; b < 2; ++b) {
      m[std::string("serve.queue_wait_ms.") + side[b]] = quantile(tr.qw[b], 0.5);
      m[std::string("serve.exec_ms.") + side[b]] = quantile(tr.ex[b], 0.5);
      m[std::string("serve.e2e_ms.") + side[b]] = quantile(tr.e2e[b], 0.5);
      m[std::string("serve.batch_size.") + side[b]] = mean(tr.batch[b]);
    }
    m["geom.hull_size"] = mean(tr.hull_size);
    statz_metrics(diff, elapsed, client.backends(), res);
    client.wire_metrics();
    m["trace.joined_requests"] = static_cast<double>(client.joined());
    m["trace.join_residual_us"] = client.join_residual_us();
    m["trace.spans"] = static_cast<double>(client.spans().spans().size());
    client.spans().print_self_table(a.workload + " (seed " + std::to_string(a.seed) + ")");
    std::fprintf(stderr, "joined %llu client requests to server spans; the recorders held %.0f traces\n",
                 static_cast<unsigned long long>(client.joined()), m["trace.recorder_held"]);
    if (!a.out_dir.empty()) {
      client.spans().write(a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".spans.json");
    }
  } else {
    m["client.late_p99_ms"] = quantile(t.late_ms, 0.99);
  }
  client.finish();
  return res.print();
}

}  // namespace perfbench
