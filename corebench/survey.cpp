// Workload `survey`: fleet::run_survey over the four paper SKUs,
// round-robin, --jobs 1, default decomposed engine, streaming
// aggregation. The universe is instance indices [0, kUniverse) of each
// SKU at base seed 0 and the default fleet seed; the run's seed picks
// where each SKU's walk through its indices starts.

#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "core/decomposed_map_solver.hpp"
#include "core/pipeline.hpp"
#include "fleet/survey.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"
#include "sim/virtual_xeon.hpp"

namespace corebench {

namespace cl = corelocate;

namespace {

constexpr int kUniverse = 256;  ///< instance indices per SKU in the oracle
constexpr int kChunk = 4;       ///< instances per run_survey call
/// Seeding rule of fleet/survey.hpp: the tool RNG runs on seed ^ this.
constexpr std::uint64_t kToolSeedTweak = 0x700150EEDULL;
constexpr cl::sim::XeonModel kSkus[] = {cl::sim::XeonModel::k8124M,
                                        cl::sim::XeonModel::k8175M,
                                        cl::sim::XeonModel::k8259CL,
                                        cl::sim::XeonModel::k6354};
constexpr std::size_t kSkuCount = std::size(kSkus);

std::string unit_key(cl::sim::XeonModel model, int index) {
  return std::string("survey:") + cl::serve::model_token(model) + ":" +
         std::to_string(index);
}

/// First instance index of chunk `round` of SKU slot `slot`.
int chunk_start(std::uint64_t seed, std::size_t slot, int round) {
  constexpr int chunks = kUniverse / kChunk;
  const auto start = static_cast<int>(start_slot(seed, 0x5E0 + slot, chunks));
  return ((start + round) % chunks) * kChunk;
}

/// Digest of what a record says about its instance: identity, outcome
/// and the map, field by field. Wall times, the solver's message and the
/// work counters in `metrics` stay out: a faster program may change those
/// and still be right.
std::uint64_t record_digest(const cl::fleet::InstanceRecord& record) {
  Fnv fnv;
  fnv.i64(record.index);
  fnv.u64(record.seed);
  fnv.u64(record.success ? 1 : 0);
  if (record.success) fnv.u64(map_digest(record.map));
  return fnv.value();
}

/// Scores each located map against the simulator's ground truth; the
/// "exact" metric lands in the record (and so in its digest).
void score_exact(const cl::fleet::InstanceTask&, const cl::fleet::LocatedInstance& located,
                 cl::fleet::InstanceRecord& record) {
  if (!located.result.success) return;
  record.metrics["exact"] =
      map_exact(located.result.map, located.config) ? 1.0 : 0.0;
}

struct SurveyPass {
  std::vector<double> instance_ms;            ///< between consecutive sink calls
  std::vector<double> sku_ms[kSkuCount];
  int sku_successes[kSkuCount] = {};
  int sku_exact[kSkuCount] = {};
  double wall_seconds = 0.0;                  ///< sum of run_survey call times
  double record_seconds = 0.0;                ///< sum of record.wall_seconds
  int instances = 0;
  int successes = 0;
  int exact = 0;
};

/// Runs one run_survey call over chunk `round` of SKU slot `slot`.
void survey_chunk(const Args& args, std::size_t slot, int round, SurveyPass& pass,
                  Outcome* out, Fnv* prefix) {
  const cl::sim::XeonModel model = kSkus[slot];
  cl::fleet::SurveyOptions options;
  options.instances = kChunk;
  options.first_instance = chunk_start(args.seed, slot, round);
  options.jobs = 1;
  options.keep_records = false;
  options.analyze = score_exact;
  Clock::time_point last = Clock::now();
  options.record_sink = [&](const cl::fleet::InstanceRecord& record) {
    const Clock::time_point now = Clock::now();
    const double ms = seconds_between(last, now) * 1e3;
    last = now;
    pass.instance_ms.push_back(ms);
    pass.sku_ms[slot].push_back(ms);
    pass.record_seconds += record.wall_seconds;
    ++pass.instances;
    const auto exact_it = record.metrics.find("exact");
    const bool exact = exact_it != record.metrics.end() && exact_it->second == 1.0;
    if (record.success) {
      ++pass.successes;
      ++pass.sku_successes[slot];
    }
    if (exact) {
      ++pass.exact;
      ++pass.sku_exact[slot];
    }
    if (out != nullptr) {
      const std::uint64_t digest = record_digest(record);
      out->attempt(record.success);
      out->unit(unit_key(model, record.index), unit_output("record", digest, exact));
      if (prefix != nullptr) prefix->u64(digest);
    }
  };
  const Clock::time_point start = Clock::now();
  last = start;
  cl::fleet::run_survey(model, options);
  pass.wall_seconds += seconds_between(start, Clock::now());
}

/// Set-up of one survey: the instance factory every run_survey call
/// builds (the fuse-out pattern pools of every SKU).
double survey_setup() {
  const Clock::time_point start = Clock::now();
  const cl::sim::InstanceFactory factory;
  return seconds_between(start, Clock::now());
}

void emit_oracle(Outcome& out) {
  const cl::sim::InstanceFactory factory;
  for (const cl::sim::XeonModel model : kSkus) {
    cl::fleet::SurveyOptions options;
    options.instances = kUniverse;
    options.jobs = 1;
    options.keep_records = false;
    options.analyze = score_exact;
    options.record_sink = [&](const cl::fleet::InstanceRecord& record) {
      const auto exact_it = record.metrics.find("exact");
      const bool exact = exact_it != record.metrics.end() && exact_it->second == 1.0;
      out.attempt(record.success);
      Output output = unit_output("record", record_digest(record), exact);
      if (record.success) output["map"] = cl::obs::Json(hex16(map_digest(record.map)));
      out.unit(unit_key(model, record.index), output);
    };
    cl::fleet::run_survey(model, options);
  }
}

void run_untraced(const Args& args, Outcome& out) {
  // First-use warm-up, untimed: instance 0 of each SKU located once pays
  // lazy one-time costs (page faults, allocator growth) before timing.
  const cl::sim::InstanceFactory factory;
  for (const cl::sim::XeonModel model : kSkus) (void)cl::fleet::locate_instance(model, 0, factory);
  // The factory takes well under a millisecond, so a moment of host
  // slowness would move timings taken in one burst: time a few before
  // every round, across the whole run, and take the median of all.
  constexpr int kSetupsPerRound = 5;
  std::vector<double> setups;

  SurveyPass pass;
  Fnv prefix;
  // Rate per round (one chunk of every SKU), kRateQuantile over rounds:
  // every round has the same SKU mix.
  std::vector<double> round_rates;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round == 0 || seconds_between(start, Clock::now()) < args.seconds;
       ++round) {
    for (int i = 0; i < kSetupsPerRound; ++i) setups.push_back(survey_setup());
    const int instances = pass.instances;
    const double wall = pass.wall_seconds;
    for (std::size_t slot = 0; slot < kSkuCount; ++slot) {
      survey_chunk(args, slot, round, pass, &out, round == 0 ? &prefix : nullptr);
    }
    round_rates.push_back((pass.instances - instances) / (pass.wall_seconds - wall));
  }
  out.field("run_digest", cl::obs::Json(hex16(prefix.value())));
  out.metric("setup_s", quantile(setups, kSetupQuantile));
  out.metric("work_per_s", quantile(round_rates, kRateQuantile));
  // Instance times cluster by SKU (four modes), and a median over all
  // instances lands between two clusters, where it jumps with the mix.
  // The mean of per-SKU medians is a median within each cluster and
  // moves when any SKU's typical instance does.
  double sku_median_sum = 0.0;
  for (const std::vector<double>& times : pass.sku_ms) sku_median_sum += median(times);
  out.field("latency_p50_ms", cl::obs::Json(sku_median_sum / kSkuCount));
  out.metric("latency_ms_tail", quantile(pass.instance_ms, 0.9));
  out.field("latency_samples", cl::obs::Json(pass.instances));
  out.metric("map_exact_ratio",
             pass.successes == 0 ? 0.0 : static_cast<double>(pass.exact) / pass.successes);
}

void run_traced(const Args& args, Outcome& out) {
  auto& tracer = cl::obs::Tracer::global();
  tracer.set_enabled(args.tracer);
  const cl::sim::InstanceFactory factory;

  // Part 1: every instance through the layers' public calls, one span
  // each. Work counts come from round 0 only, a fixed set of
  // kSkuCount * kChunk instances, so they repeat exactly run to run.
  LayerCounts counts;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round == 0 || seconds_between(start, Clock::now()) < args.seconds / 2;
       ++round) {
    LayerCounts round_counts;
    for (std::size_t slot = 0; slot < kSkuCount; ++slot) {
      const int first = chunk_start(args.seed, slot, round);
      for (int index = first; index < first + kChunk; ++index) {
        const TracedLocate located = traced_locate(
            kSkus[slot], static_cast<std::uint64_t>(index), factory, round_counts);
        out.attempt(located.success);
        if (located.success) {
          out.unit(unit_key(kSkus[slot], index),
                   unit_output("map", located.digest, located.exact));
        }
      }
    }
    if (round == 0) counts = round_counts;
  }
  emit_counts(counts, out);

  // Part 2: run_survey itself, alternating tracer off and on over the
  // same chunks: fleet overhead from the untraced calls, the program's
  // own span coverage and the tracing overhead from the pairs.
  SurveyPass untraced;
  SurveyPass traced;
  const Clock::time_point part2 = Clock::now();
  for (int round = 0; round == 0 || seconds_between(part2, Clock::now()) < args.seconds / 2;
       ++round) {
    for (std::size_t slot = 0; slot < kSkuCount; ++slot) {
      tracer.set_enabled(false);
      survey_chunk(args, slot, round, untraced, nullptr, nullptr);
      tracer.set_enabled(args.tracer);
      survey_chunk(args, slot, round, traced, nullptr, nullptr);
    }
  }
  tracer.set_enabled(false);
  out.metric("fleet.overhead_ms",
             (untraced.wall_seconds - untraced.record_seconds) * 1e3 / untraced.instances);
  out.metric("trace.overhead_ratio", traced.wall_seconds / untraced.wall_seconds);
  for (std::size_t slot = 0; slot < kSkuCount; ++slot) {
    const std::string prefix = std::string("survey.") + cl::serve::model_token(kSkus[slot]);
    out.metric(prefix + ".instance_ms", median(untraced.sku_ms[slot]));
    out.metric(prefix + ".exact_ratio",
               untraced.sku_successes[slot] == 0
                   ? 0.0
                   : static_cast<double>(untraced.sku_exact[slot]) /
                         untraced.sku_successes[slot]);
  }
}

}  // namespace

TracedLocate traced_locate(cl::sim::XeonModel model, std::uint64_t seed,
                           const cl::sim::InstanceFactory& factory, LayerCounts& counts) {
  cl::obs::Span instance("instance", "corebench");
  instance.arg("sku", cl::obs::Json(cl::serve::model_token(model)));
  cl::util::Rng machine_rng(seed);
  cl::sim::InstanceConfig config;
  {
    cl::obs::Span span("sim.factory", "corebench");
    config = factory.make_instance(model, machine_rng);
  }
  std::optional<cl::sim::VirtualXeon> cpu;
  {
    cl::obs::Span span("sim.construct", "corebench");
    cpu.emplace(config);
  }
  cl::util::Rng tool_rng(seed ^ kToolSeedTweak);
  const cl::core::LocateOptions options = cl::core::options_for(cl::sim::spec_for(model));
  cl::core::ChaMappingResult mapping;
  {
    cl::obs::Span span("core.step1", "corebench");
    cl::core::ChaMapper mapper(*cpu, tool_rng, options.mapper);
    mapping = mapper.map();
  }
  cl::core::ObservationSet observations;
  {
    cl::obs::Span span("core.step2", "corebench");
    cl::core::TrafficProber prober(*cpu, options.probe);
    observations = prober.probe_all(mapping);
  }
  counts.instances += 1;
  counts.bl_cycles += static_cast<double>(cpu->traffic().grand_total());
  for (int cha = 0; cha < cpu->cha_count(); ++cha) {
    counts.llc_lookups += static_cast<double>(cpu->event_total(
        cha, cl::msr::ChaEvent::kLlcLookup, cl::msr::kUmaskLlcLookupAny));
  }
  for (const auto& set : mapping.eviction_sets) {
    counts.eviction_set_lines += static_cast<double>(set.size());
  }
  counts.observations += static_cast<double>(observations.size());
  cl::core::MapSolveResult solved;
  {
    cl::obs::Span span("core.step3", "corebench");
    cl::core::DecomposedSolverOptions solver = options.decomposed;
    solver.grid_rows = options.grid_rows;
    solver.grid_cols = options.grid_cols;
    solved = cl::core::DecomposedMapSolver(solver).solve(observations, cpu->cha_count());
  }
  counts.ilp_nodes += static_cast<double>(solved.nodes);
  counts.ilp_lp_iterations += static_cast<double>(solved.lp_iterations);
  cl::core::CoreMap map;
  map.rows = options.grid_rows;
  map.cols = options.grid_cols;
  map.cha_position = std::move(solved.cha_position);
  map.os_core_to_cha = mapping.os_core_to_cha;
  map.llc_only_chas = mapping.llc_only_chas;
  map.ppin = cl::msr::PmonDriver(cpu->msr()).read_ppin();
  {
    cl::obs::Span span("sim.destroy", "corebench");
    cpu.reset();
  }
  TracedLocate located;
  located.success = solved.success;
  if (solved.success) {
    located.digest = map_digest(map);
    located.exact = map_exact(map, config);
  }
  return located;
}

void emit_counts(const LayerCounts& counts, Outcome& out) {
  const double n = counts.instances;
  out.metric("trace.units", n);
  out.metric("mesh.bl_cycles", n == 0 ? 0.0 : counts.bl_cycles / n);
  out.metric("cache.llc_lookups", n == 0 ? 0.0 : counts.llc_lookups / n);
  out.metric("core.eviction_set_lines", n == 0 ? 0.0 : counts.eviction_set_lines / n);
  out.metric("core.observations", n == 0 ? 0.0 : counts.observations / n);
  out.metric("ilp.nodes", n == 0 ? 0.0 : counts.ilp_nodes / n);
  out.metric("ilp.lp_iterations", n == 0 ? 0.0 : counts.ilp_lp_iterations / n);
}

void run_survey(const Args& args, Outcome& out) {
  if (args.mode == "oracle") {
    emit_oracle(out);
  } else if (args.mode == "inputs") {
    Fnv fnv;
    for (int round = 0; round < 8; ++round) {
      for (std::size_t slot = 0; slot < kSkuCount; ++slot) {
        fnv.i64(chunk_start(args.seed, slot, round));
      }
    }
    out.field("inputs_digest", cl::obs::Json(hex16(fnv.value())));
  } else if (args.trace) {
    run_traced(args, out);
  } else {
    run_untraced(args, out);
  }
}

}  // namespace corebench
