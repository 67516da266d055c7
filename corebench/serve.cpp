// Workloads `serve-hot` and `serve-cold`: serve::Service (refined
// engine) fed by serve::Loadgen.
//
//   serve-hot   Loadgen defaults: 96-instance pool, Zipf 1.1, 1/8 plan,
//               1/16 permuted; 2 workers. After warm-up every request
//               hits the map cache, so fingerprinting and cache hits are
//               the cost.
//   serve-cold  Zipf 0 over a 256-instance pool and a 64-entry map cache;
//               1 worker. Most requests miss, solve, fill the cache and
//               evict.
//
// The pool is fixed (Loadgen's default seed), so its correct maps are
// stored once under corebench/oracle/; the run's seed picks where in the
// request stream the run starts. Each run has three passes, the last
// two interleaved in kSegments pieces, so that each samples the whole
// run and not a stretch of it in which the shared host ran fast or slow:
//   warm-up     untimed prefix of the stream, full batches;
//   fixed rate  open loop at the workload's offered rate. Batch windows
//               follow the arrival schedule (each request is submitted at
//               the first 0.5 ms window boundary at or after its due
//               time), so the responses and the response log are a pure
//               function of (seed, rate). Both offered rates put every
//               due time on a boundary: each request goes out alone at
//               its due time, and its latency, due time to response, is
//               the service's own time plus any wait behind the request
//               before it;
//   saturated   closed loop with full batches, timing only submit+pump:
//               the throughput. Its length is a number of batches sized
//               to fill the rest of --seconds on the seed build, not a
//               wall time, so the requests a run serves, and with them
//               its attempted and failed counts, are a pure function of
//               (seed, --seconds).

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/observation.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"

namespace corebench {

namespace cl = corelocate;

namespace {

constexpr double kWindow = 0.0005;  ///< batch window of the fixed-rate passes (s)
constexpr int kBatchMax = 256;
/// Final stretch before a window closes that the dispatcher spins.
constexpr double kSpinSeconds = 0.002;
/// Quantile of latency_ms_tail and serve.queue_wait_ms: the p99 of
/// ~0.1 ms hits is set by host scheduling stalls, not by the service.
constexpr double kTailQuantile = 0.9;
/// A ladder rung whose last quarter of windows went out later than this
/// on average has a growing backlog.
constexpr double kBacklogLimitMs = 40.0;
/// Shortest saturated pass: enough full batches for a steady rate quantile.
constexpr double kMinSaturatedSeconds = 5.0;
/// Wall-time cap of the saturated chunks, which ends them early only when
/// the program has become several times slower than the seed build; it
/// keeps a run inside its time limit.
constexpr double kMaxSaturatedSeconds = 90.0;
/// Pieces the fixed-rate and saturated passes are cut into and
/// interleaved in (untraced runs).
constexpr int kSegments = 8;

struct ServeSpec {
  std::string name;
  cl::serve::LoadgenOptions load;
  std::size_t cache_capacity = 4096;
  double rate = 0.0;           ///< offered rate of the fixed-rate pass (1/s)
  /// Saturated throughput of the seed build (1/s): sizes the saturated
  /// pass, whose length must not follow the host's speed.
  double saturated_rps = 0.0;
  int fixed_requests = 0;      ///< requests in the fixed-rate pass
  int warmup = 0;              ///< untimed warm-up prefix
  double p99_limit_ms = 0.0;   ///< latency limit of the sustained-rate ladder
  int jobs = 2;                ///< service workers
};

ServeSpec serve_spec(bool hot) {
  ServeSpec spec;
  if (hot) {
    spec.name = "serve-hot";
    spec.rate = 2000.0;
    spec.saturated_rps = 10000.0;
    spec.fixed_requests = 12000;
    spec.warmup = 4096;
    spec.p99_limit_ms = 50.0;
  } else {
    spec.name = "serve-cold";
    spec.load.distinct_per_sku = 64;
    spec.load.zipf_exponent = 0.0;
    spec.cache_capacity = 64;
    // Service-time quantiles of this mix move with how many 6354 solves
    // (10-80 ms each, the slowest tenth of requests) a sample holds: a
    // long fixed-rate pass keeps that share steady from seed to seed. At
    // 200/s, one request per batch, the worker is about always busy and
    // requests queue in the dispatcher; at 125/s it idled between solves,
    // and the p90 of five seeds spread 0.29 against 0.17 here.
    spec.rate = 200.0;
    spec.saturated_rps = 1150.0;
    spec.fixed_requests = 1875;
    spec.warmup = 256;
    spec.p99_limit_ms = 500.0;
    // One worker: with two, runs on the same inputs varied by up to a
    // third in throughput on a shared 4-vCPU host, with the speed-up of
    // the second worker; one worker varied by a few percent.
    spec.jobs = 1;
  }
  return spec;
}

/// One response as the client saw it.
struct Served {
  std::uint64_t index = 0;
  double at = 0.0;  ///< seconds since the run's epoch
  cl::serve::Status status = cl::serve::Status::kFailed;
  std::shared_ptr<const cl::core::CoreMap> map;
};

/// The service under test plus everything the response callback feeds.
class Harness {
 public:
  Harness(const ServeSpec& spec, int jobs, Clock::time_point epoch)
      : epoch_(epoch), loadgen_(spec.load) {
    cl::serve::ServiceOptions options;
    options.jobs = jobs;
    options.batch_max = kBatchMax;
    options.cache_capacity = spec.cache_capacity;
    options.engine = cl::core::SolverEngine::kRefined;
    options.on_response = [this](const cl::serve::Response& response) {
      Served served;
      served.index = base_ + response.seq;
      served.at = seconds_between(epoch_, Clock::now());
      served.status = response.status;
      served.map = response.map;
      served_.push_back(std::move(served));
    };
    service_.emplace(std::move(options));
  }

  void set_base(std::uint64_t base) { base_ = base; }
  cl::serve::Service& service() { return *service_; }
  const cl::serve::Loadgen& loadgen() const { return loadgen_; }
  std::vector<Served>& served() { return served_; }
  double now() const { return seconds_between(epoch_, Clock::now()); }

  /// Requests [first, first + count) of the stream.
  std::vector<cl::serve::Request> make(std::uint64_t first, std::uint64_t count) const {
    std::vector<cl::serve::Request> out;
    out.reserve(count);
    for (std::uint64_t i = first; i < first + count; ++i) {
      out.push_back(loadgen_.make_request(i));
    }
    return out;
  }

  /// Submits and drains `requests` in full batches, untimed.
  void run_full(std::vector<cl::serve::Request> requests) {
    for (auto& request : requests) service_->submit(std::move(request));
    service_->drain();
  }

 private:
  Clock::time_point epoch_;
  cl::serve::Loadgen loadgen_;
  std::optional<cl::serve::Service> service_;
  std::uint64_t base_ = 0;
  std::vector<Served> served_;
};

struct FixedPass {
  std::vector<double> latency_ms;  ///< due time to response
  std::vector<double> service_ms;  ///< start of the serving pump to response
  std::vector<double> queue_wait_ms;
  int pumps = 0;
  double late_max_ms = 0.0;
  double late_tail_ms = 0.0;  ///< mean lateness over the last quarter of windows
};

/// Open loop at `rate` over requests [first, first + count): request k
/// is due at k / rate and goes out with the window that closes at the
/// first boundary (a multiple of kWindow) at or after that. `traced`
/// wraps each pump in a serve.pump span.
FixedPass fixed_rate_pass(Harness& h, std::uint64_t first, int count, double rate,
                          bool traced) {
  std::vector<cl::serve::Request> requests = h.make(first, static_cast<std::uint64_t>(count));
  const double per_window = rate * kWindow;
  const auto window_of = [&](int k) {
    // The tolerance keeps a due time on a boundary in its own window.
    return static_cast<long>(std::ceil(k / per_window - 1e-6));
  };
  const std::size_t served_before = h.served().size();
  FixedPass pass;
  std::vector<double> lateness;
  const double t0 = h.now() + 0.01;
  for (int lo = 0; lo < count;) {
    const long window = window_of(lo);
    int hi = lo + 1;
    while (hi < count && window_of(hi) == window) ++hi;
    const double close = t0 + static_cast<double>(window) * kWindow;
    // Sleep, then spin the last stretch: timer wake-ups jitter by up to a
    // millisecond.
    const double wait = close - h.now() - kSpinSeconds;
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    while (h.now() < close) {
    }
    const double late = std::max(0.0, h.now() - close);
    lateness.push_back(late * 1e3);
    pass.late_max_ms = std::max(pass.late_max_ms, late * 1e3);
    for (int k = lo; k < hi; ++k) {
      h.service().submit(std::move(requests[static_cast<std::size_t>(k)]));
    }
    lo = hi;
    while (h.service().pending() != 0) {
      const double pump_start = h.now();
      const std::size_t before = h.served().size();
      if (traced) {
        cl::obs::Span span("serve.pump", "corebench");
        span.arg("requests", cl::obs::Json(h.service().pump()));
      } else {
        h.service().pump();
      }
      ++pass.pumps;
      for (std::size_t r = before; r < h.served().size(); ++r) {
        const Served& s = h.served()[r];
        const double due = t0 + static_cast<double>(s.index - first) / rate;
        pass.queue_wait_ms.push_back((pump_start - due) * 1e3);
        pass.service_ms.push_back((s.at - pump_start) * 1e3);
      }
    }
  }
  for (std::size_t r = served_before; r < h.served().size(); ++r) {
    const Served& s = h.served()[r];
    const double due = t0 + static_cast<double>(s.index - first) / rate;
    pass.latency_ms.push_back((s.at - due) * 1e3);
  }
  const std::size_t tail = lateness.size() / 4;
  double sum = 0.0;
  for (std::size_t i = lateness.size() - tail; i < lateness.size(); ++i) sum += lateness[i];
  pass.late_tail_ms = tail == 0 ? 0.0 : sum / static_cast<double>(tail);
  return pass;
}

struct Saturated {
  std::vector<double> chunk_rates;  ///< responses per second of each chunk
  double responses = 0.0;
  double busy = 0.0;  ///< seconds spent in submit+pump
};

/// Number of full batches the seed build serves in `seconds`.
int saturated_chunks(const ServeSpec& spec, double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds * spec.saturated_rps / kBatchMax)));
}

/// Closed loop from `first`: `chunks` chunks of kBatchMax requests, each
/// submitted and pumped as one full batch, or fewer once `deadline` has
/// passed. Only submit+pump is timed and appended to `pass`; `between`
/// runs untimed after each chunk. Advances `first` past the requests used.
void saturated_pass(Harness& h, std::uint64_t& first, int chunks, Clock::time_point deadline,
                    const std::function<void()>& between, Saturated& pass) {
  for (int chunk = 0; chunk != chunks && Clock::now() < deadline; ++chunk) {
    std::vector<cl::serve::Request> requests = h.make(first, kBatchMax);
    first += kBatchMax;
    const Clock::time_point start = Clock::now();
    for (auto& request : requests) h.service().submit(std::move(request));
    const auto responses = static_cast<double>(h.service().pump());
    const double busy = seconds_between(start, Clock::now());
    pass.chunk_rates.push_back(responses / busy);
    pass.responses += responses;
    pass.busy += busy;
    between();
  }
}

/// Parses "model=X seed=N" out of a Loadgen request line.
std::pair<cl::sim::XeonModel, std::uint64_t> pool_identity(const std::string& line) {
  std::istringstream in(line);
  std::string token;
  cl::sim::XeonModel model{};
  std::uint64_t seed = 0;
  while (in >> token) {
    if (token.rfind("model=", 0) == 0) cl::serve::parse_model_token(token.substr(6), model);
    if (token.rfind("seed=", 0) == 0) seed = std::stoull(token.substr(5));
  }
  return {model, seed};
}

const cl::serve::MappingRequest& mapping_of(const cl::serve::Request& request) {
  if (const auto* mapping = std::get_if<cl::serve::MappingRequest>(&request.payload)) {
    return *mapping;
  }
  return std::get<cl::serve::CovertPlanRequest>(request.payload).instance;
}

/// Digests every response recorded so far by pool entry and scores each
/// served map against the pool entry's ground truth; run.py compares the
/// outputs with the stored oracle.
struct Checker {
  std::map<int, cl::sim::InstanceConfig> truth_by_pool;
  /// Per served map object: its digest and whether it is exact.
  std::map<const cl::core::CoreMap*, std::pair<std::uint64_t, bool>> by_map;
  std::uint64_t mapped = 0;
  std::uint64_t exact = 0;

  void check(const ServeSpec& spec, Harness& h, Outcome& out) {
    const cl::sim::InstanceFactory factory(spec.load.fleet_seed);
    for (const Served& s : h.served()) {
      const bool ok = s.status != cl::serve::Status::kFailed && s.map != nullptr;
      out.attempt(ok);
      if (!ok) continue;
      const int pool = h.loadgen().pool_index_of(s.index);
      auto truth_it = truth_by_pool.find(pool);
      if (truth_it == truth_by_pool.end()) {
        const auto [model, seed] = pool_identity(h.loadgen().request_line(s.index));
        cl::util::Rng rng(seed);
        truth_it = truth_by_pool.emplace(pool, factory.make_instance(model, rng)).first;
      }
      auto [it, fresh] = by_map.emplace(s.map.get(), std::pair<std::uint64_t, bool>{});
      if (fresh) it->second = {canonical_map_digest(*s.map), map_exact(*s.map, truth_it->second)};
      ++mapped;
      if (it->second.second) ++exact;
      out.unit(spec.name + ":" + std::to_string(pool),
               unit_output("map", it->second.first, it->second.second));
    }
    // The maps stay alive until here, so no address is reused mid-check.
    h.served().clear();
    by_map.clear();
  }
};

std::uint64_t stream_base(std::uint64_t seed) { return start_slot(seed, 0x5E77E, 1ULL << 40); }

/// Each pool entry's map, solved from its unpermuted observations
/// ("<key>#0") and from kOrders - 1 reorderings ("<key>#<p>"), with the
/// observed activations each map fails to reproduce
/// (core::check_consistency). The served map follows the order of the
/// request that filled the cache, so make_oracle.py stores the map that
/// reproduces every observation as the answer and any other map it sees
/// as a known wrong one.
void emit_oracle(const ServeSpec& spec, Outcome& out) {
  constexpr std::uint64_t kOrders = 64;
  const cl::serve::Loadgen loadgen(spec.load);
  const cl::sim::InstanceFactory factory(spec.load.fleet_seed);
  std::vector<char> seen(loadgen.pool_size(), 0);
  std::size_t remaining = loadgen.pool_size();
  for (std::uint64_t i = 0; remaining != 0; ++i) {
    const int pool = loadgen.pool_index_of(i);
    if (pool < 0 || seen[static_cast<std::size_t>(pool)]) continue;
    seen[static_cast<std::size_t>(pool)] = 1;
    --remaining;
    const auto [model, seed] = pool_identity(loadgen.request_line(i));
    const cl::serve::MappingRequest request = cl::serve::synthesize_client(model, seed, factory);
    cl::util::Rng rng(seed);
    const cl::sim::InstanceConfig truth = factory.make_instance(model, rng);
    for (std::uint64_t p = 0; p < kOrders; ++p) {
      cl::serve::MappingRequest ordered = request;
      if (p != 0) {
        ordered.observations = cl::serve::permute_observations(*request.observations, p);
      }
      cl::core::MapSolveResult solved =
          cl::serve::solve_mapping(ordered, cl::core::SolverEngine::kRefined);
      out.attempt(solved.success);
      if (!solved.success) continue;
      const cl::core::CoreMap map = cl::serve::build_map(ordered, std::move(solved));
      Output output = unit_output("map", canonical_map_digest(map), map_exact(map, truth));
      output["positive_violations"] = cl::obs::Json(
          cl::core::check_consistency(map.cha_position, *ordered.observations, map.rows,
                                      map.cols)
              .positive_violations);
      out.unit(spec.name + ":" + std::to_string(pool) + "#" + std::to_string(p), output);
    }
  }
}

std::uint64_t counter(const cl::obs::Registry& registry, const char* name) {
  const cl::obs::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

}  // namespace

void run_serve(const Args& args, Outcome& out, bool hot) {
  const ServeSpec spec = serve_spec(hot);
  if (args.mode == "oracle") {
    emit_oracle(spec, out);
    return;
  }
  const std::uint64_t base = stream_base(args.seed);
  if (args.mode == "inputs") {
    const cl::serve::Loadgen loadgen(spec.load);
    Fnv fnv;
    for (std::uint64_t i = base; i < base + 4096; ++i) fnv.str(loadgen.request_line(i));
    out.field("inputs_digest", cl::obs::Json(hex16(fnv.value())));
    return;
  }

  const Clock::time_point epoch = Clock::now();
  const int jobs = args.jobs != 0 ? args.jobs : spec.jobs;
  std::vector<double> setups;
  const auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    auto harness = std::make_unique<Harness>(spec, jobs, epoch);
    setups.push_back(seconds_between(start, Clock::now()));
    return harness;
  };
  const std::unique_ptr<Harness> harness = set_up();
  Harness& h = *harness;
  h.set_base(base);
  Checker checker;

  std::uint64_t next = base;
  h.run_full(h.make(next, static_cast<std::uint64_t>(spec.warmup)));
  next += static_cast<std::uint64_t>(spec.warmup);
  checker.check(spec, h, out);

  auto& tracer = cl::obs::Tracer::global();
  const bool traced = args.trace;
  const cl::obs::Registry before = h.service().registry();
  tracer.set_enabled(traced && args.tracer);
  // Untraced, the fixed-rate pass runs in kSegments pieces (below); the
  // run digest covers the warm-up and the first, whatever --seconds is.
  const int segments = traced ? 1 : kSegments;
  const auto segment_size = [&](int k) {
    return spec.fixed_requests * (k + 1) / segments - spec.fixed_requests * k / segments;
  };
  const std::uint64_t fixed_first = next;
  FixedPass fixed = fixed_rate_pass(h, fixed_first, segment_size(0), spec.rate, traced);
  tracer.set_enabled(false);
  next += static_cast<std::uint64_t>(segment_size(0));
  const cl::obs::Registry& after = h.service().registry();
  out.field("run_digest", cl::obs::Json(hex16(h.service().response_log().checksum())));
  std::vector<std::uint64_t> solved_indices;
  for (const Served& s : h.served()) {
    if (s.status == cl::serve::Status::kSolved) solved_indices.push_back(s.index);
  }
  checker.check(spec, h, out);

  if (!traced) {
    // Saturated chunks sized to the rest of --seconds, cut into segments
    // with the fixed-rate pass's other pieces between them. work_per_s is
    // the kRateQuantile of the chunks' rates. The other set-ups are
    // spread over the run (untimed there), so a moment of host slowness
    // at its start does not move setup_s.
    const double fixed_seconds = spec.fixed_requests / spec.rate;
    const int chunks =
        saturated_chunks(spec, std::max(kMinSaturatedSeconds, args.seconds - fixed_seconds));
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kMaxSaturatedSeconds));
    Saturated saturated;
    int done = 0;
    for (int k = 0; k < segments; ++k) {
      if (k > 0) {
        const FixedPass piece = fixed_rate_pass(h, next, segment_size(k), spec.rate, false);
        next += static_cast<std::uint64_t>(segment_size(k));
        fixed.service_ms.insert(fixed.service_ms.end(), piece.service_ms.begin(),
                                piece.service_ms.end());
        checker.check(spec, h, out);
      }
      const int group = chunks * (k + 1) / segments - chunks * k / segments;
      saturated_pass(h, next, group, deadline, [&] {
        checker.check(spec, h, out);
        ++done;
        if (setups.size() < static_cast<std::size_t>(kSetups) &&
            done * kSetups >= chunks * static_cast<int>(setups.size())) {
          (void)set_up();
        }
      }, saturated);
    }
    // The service's own time per request. The wait before it (the
    // dispatcher running late, or a request behind a cold solve) is
    // serve.queue_wait_ms of the traced run.
    out.field("latency_p50_ms", cl::obs::Json(quantile(fixed.service_ms, 0.5)));
    // serve-cold's slowest tenth are 6354 solves of 10-80 ms each; the
    // p90 falls where that spread is widest and jumps with how many of
    // them a seed's sample holds, their mean does not. serve-hot's
    // slowest tenth is mostly host stalls, so it keeps the p90.
    out.metric("latency_ms_tail", hot ? quantile(fixed.service_ms, kTailQuantile)
                                      : tail_mean(fixed.service_ms, kTailQuantile));
    out.field("latency_samples", cl::obs::Json(fixed.service_ms.size()));
    out.metric("setup_s", quantile(setups, kSetupQuantile));
    out.metric("work_per_s", quantile(saturated.chunk_rates, kRateQuantile));
    out.metric("map_exact_ratio",
               checker.mapped == 0 ? 0.0
                                   : static_cast<double>(checker.exact) /
                                         static_cast<double>(checker.mapped));
    return;
  }

  // Traced run: per-layer numbers of the fixed-rate pass.
  const auto delta = [&](const char* name) {
    return static_cast<double>(counter(after, name) - counter(before, name));
  };
  const double hits = delta("serve.cache.hits");
  const double misses = delta("serve.cache.misses");
  out.metric("serve.cache.hit_ratio", hits + misses == 0 ? 0.0 : hits / (hits + misses));
  out.metric("serve.cache.evictions", delta("serve.cache.evictions"));
  out.metric("serve.solves", delta("serve.batch.solves"));
  out.metric("serve.coalesced", delta("serve.batch.coalesced"));
  out.metric("serve.batch_requests",
             static_cast<double>(spec.fixed_requests) / std::max(1, fixed.pumps));
  out.metric("trace.units", spec.fixed_requests);
  out.metric("serve.queue_wait_ms", quantile(fixed.queue_wait_ms, kTailQuantile));
  out.metric("loadgen.late_ms_max", fixed.late_max_ms);

  // Layer calls replayed over the same requests, one span each.
  tracer.set_enabled(args.tracer);
  for (cl::serve::Request& request :
       h.make(fixed_first, static_cast<std::uint64_t>(spec.fixed_requests))) {
    cl::obs::Span span("serve.fingerprint", "corebench");
    (void)cl::serve::fingerprint_of(mapping_of(request));
  }
  constexpr std::size_t kSolveReplays = 48;
  for (std::size_t k = 0; k < std::min(kSolveReplays, solved_indices.size()); ++k) {
    const cl::serve::Request request = h.loadgen().make_request(solved_indices[k]);
    cl::obs::Span span("serve.solve", "corebench");
    (void)cl::serve::solve_mapping(mapping_of(request), cl::core::SolverEngine::kRefined);
  }
  tracer.set_enabled(false);

  // Tracing overhead: saturated chunks alternately untraced and traced,
  // a fixed number of pairs.
  double off_busy = 0.0, off_n = 0.0, on_busy = 0.0, on_n = 0.0;
  const int pairs = std::max(1, saturated_chunks(spec, std::max(1.0, args.seconds / 4)) / 2);
  for (int pair = 0; pair < pairs; ++pair) {
    const auto check = [&] { checker.check(spec, h, out); };
    Saturated off, on;
    saturated_pass(h, next, 1, Clock::time_point::max(), check, off);
    tracer.set_enabled(args.tracer);
    saturated_pass(h, next, 1, Clock::time_point::max(), check, on);
    tracer.set_enabled(false);
    off_n += off.responses;
    off_busy += off.busy;
    on_n += on.responses;
    on_busy += on.busy;
  }
  out.metric("trace.overhead_ratio", (on_busy / on_n) / (off_busy / off_n));
  checker.check(spec, h, out);

  // Sustained rate: the highest rung of a fixed ladder that, with every
  // rung below it, meets the p99 limit with no growing backlog (tracing
  // off). Every rung runs, so the requests served do not depend on
  // where the ladder stops meeting.
  double sustained = 0.0;
  bool met = true;
  for (const double factor : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0}) {
    const double rate = spec.rate * factor;
    const int count = static_cast<int>(std::lround(rate * 1.0));
    const FixedPass rung = fixed_rate_pass(h, next, count, rate, false);
    next += static_cast<std::uint64_t>(count);
    checker.check(spec, h, out);
    const bool meets = quantile(rung.latency_ms, 0.99) <= spec.p99_limit_ms &&
                       rung.late_tail_ms <= kBacklogLimitMs;
    met = met && meets;
    if (met) sustained = rate;
  }
  out.metric("serve.sustained_rps", sustained);
}

}  // namespace corebench
