#include "serve/batcher.h"

namespace iph::serve {

std::vector<Response> execute_batch(const BackendSet& backends,
                                    std::span<const Request> requests,
                                    std::uint64_t master_seed,
                                    BatchExecInfo* info) {
  std::vector<Response> out;
  out.reserve(requests.size());
  if (info != nullptr) {
    info->completed_at.clear();
    info->completed_at.reserve(requests.size());
    info->started_at.clear();
    info->started_at.reserve(requests.size());
    info->pram_events.clear();
    info->pram_events.reserve(requests.size());
    info->pram_total = pram::Metrics{};
    info->pram_requests = 0;
    info->native_requests = 0;
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const std::uint64_t seed = derive_request_seed(master_seed, r.id);
    exec::Backend* backend = backends.resolve(r.backend);
    const bool on_pram = backend->kind() != exec::BackendKind::kNative;
    const std::size_t ev_begin =
        backends.recorder != nullptr && on_pram
            ? backends.recorder->events().size()
            : 0;
    const auto t0 = Clock::now();
    exec::HullRun run = backend->upper_hull(r.points, seed, r.alpha);
    const auto t1 = Clock::now();
    Response resp;
    resp.id = r.id;
    resp.status = Status::kOk;
    resp.hull = std::move(run.hull);
    resp.metrics.seed = seed;
    resp.metrics.steps = run.metrics.steps;
    resp.metrics.work = run.metrics.work;
    resp.metrics.max_active = run.metrics.max_active;
    resp.metrics.batch_size = requests.size();
    resp.metrics.exec_ms = ms_between(t0, t1);
    resp.metrics.backend = backend->kind();
    if (info != nullptr) {
      info->completed_at.push_back(t1);
      info->started_at.push_back(t0);
      const std::size_t ev_end =
          backends.recorder != nullptr && on_pram
              ? backends.recorder->events().size()
              : 0;
      info->pram_events.emplace_back(ev_begin, ev_end);
      info->pram_total.add_counters(run.metrics);
      if (backend->kind() == exec::BackendKind::kNative) {
        ++info->native_requests;
      } else {
        ++info->pram_requests;
      }
    }
    out.push_back(std::move(resp));
  }
  return out;
}

}  // namespace iph::serve
