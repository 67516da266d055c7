// Workload `covert`: covert::run_transmission on one located 8259CL
// instance (the paper's Fig. 7 machine: instance 0 of the fleet). Units cycle through Fig. 7-style
// single-sender channels at 1, 2 and 3 vertical hops and one Fig. 8b
// set of four disjoint vertical 1-hop channels, all at 2 bps with
// 256-bit payloads, each on a fresh thermal model of the instance's die.
//
// The universe is unit indices [0, kUnits); unit j (its channels and
// payloads) is a pure function of j. The run's seed picks the first unit;
// the walk wraps within kUnits.

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "covert/multi.hpp"
#include "fleet/survey.hpp"
#include "obs/trace.hpp"
#include "thermal/thermal_model.hpp"

namespace corebench {

namespace cl = corelocate;

namespace {

constexpr std::uint64_t kInstance = 0;  ///< instance index (seed) located
constexpr std::uint64_t kUnits = 128;
constexpr int kPayloadBits = 256;
constexpr double kBitRate = 2.0;
constexpr int kMultiChannels = 4;
constexpr std::uint64_t kPrefixUnits = 8;  ///< units behind run_digest and covert.ber
constexpr cl::sim::XeonModel kModel = cl::sim::XeonModel::k8259CL;

/// The paper's cloud setting: co-tenant load on the other cores.
cl::thermal::ThermalParams cloud_params() {
  cl::thermal::ThermalParams params;
  params.tenant_walk_w = 2.2;
  return params;
}

struct Instance {
  cl::fleet::LocatedInstance located;
  bool exact = false;
};

Instance locate(std::uint64_t index) {
  const cl::sim::InstanceFactory factory;
  Instance instance;
  instance.located = cl::fleet::locate_instance(kModel, index, factory);
  if (!instance.located.result.success) {
    throw std::runtime_error("covert: instance " + std::to_string(index) +
                             " failed to locate: " + instance.located.result.message);
  }
  instance.exact =
      map_exact(instance.located.result.map, instance.located.config);
  return instance;
}

struct Unit {
  std::vector<cl::covert::ChannelSpec> channels;
  cl::covert::TransmissionConfig config;
  std::uint64_t thermal_seed = 0;
};

/// Unit j of instance u: channels planned on the recovered map, heat on
/// the machine's true tiles (the map may be the mirror image).
Unit make_unit(const Instance& instance, std::uint64_t j) {
  const cl::core::CoreMap& map = instance.located.result.map;
  const cl::sim::InstanceConfig& machine = instance.located.config;
  const std::uint64_t key = cl::util::mix64(j);
  cl::util::Rng payload_rng(key);
  Unit unit;
  const int kind = static_cast<int>(j % 4);
  if (kind < 3) {
    const auto pairs = cl::covert::pairs_at_offset(map, kind + 1, 0);
    if (pairs.empty()) throw std::runtime_error("covert: no vertical pair at distance");
    const auto [sender, receiver] = pairs[key % pairs.size()];
    unit.channels.push_back(cl::covert::make_channel_on(
        machine, {sender}, receiver, cl::covert::random_bits(kPayloadBits, payload_rng)));
  } else {
    for (const auto& [sender, receiver] :
         cl::covert::plan_disjoint_vertical_pairs(map, kMultiChannels)) {
      unit.channels.push_back(cl::covert::make_channel_on(
          machine, {sender}, receiver, cl::covert::random_bits(kPayloadBits, payload_rng)));
    }
  }
  unit.config.bit_rate_bps = kBitRate;
  unit.config.seed = key ^ 0xC0DEULL;
  unit.thermal_seed = key ^ 0x7EA7ULL;
  return unit;
}

/// A thermal model of the instance's die with co-tenant load on every
/// core that takes no part in the unit's channels.
cl::thermal::ThermalModel make_model(const Instance& instance, const Unit& unit) {
  const cl::sim::InstanceConfig& machine = instance.located.config;
  cl::thermal::ThermalModel model(machine.grid, cloud_params(), unit.thermal_seed);
  for (int os = 0; os < machine.os_core_count(); ++os) {
    const cl::mesh::Coord pos = machine.tile_of_os_core(os);
    bool participant = false;
    for (const cl::covert::ChannelSpec& spec : unit.channels) {
      participant = participant || pos == spec.receiver_tile ||
                    std::find(spec.sender_tiles.begin(), spec.sender_tiles.end(), pos) !=
                        spec.sender_tiles.end();
    }
    if (!participant) model.set_tenant(pos, true);
  }
  return model;
}

struct UnitResult {
  cl::covert::TransmissionResult result;
  std::uint64_t digest = 0;
  double bit_errors = 0;
  double bits = 0;
  double host_seconds = 0;
};

UnitResult transmit(const Instance& instance, const Unit& unit) {
  UnitResult out;
  const Clock::time_point start = Clock::now();
  cl::thermal::ThermalModel model = make_model(instance, unit);
  out.result = cl::covert::run_transmission(model, unit.channels, unit.config);
  out.host_seconds = seconds_between(start, Clock::now());
  Fnv fnv;
  for (std::size_t c = 0; c < unit.channels.size(); ++c) {
    const cl::covert::ChannelOutcome& outcome = out.result.channels[c];
    fnv.u64(outcome.synced ? 1 : 0);
    fnv.i64(outcome.signature_errors);
    fnv.u64(outcome.decoded.size());
    fnv.bytes(outcome.decoded.data(), outcome.decoded.size());
    const double bits = static_cast<double>(unit.channels[c].payload.size());
    out.bits += bits;
    out.bit_errors += std::round(outcome.ber * bits);
  }
  out.digest = fnv.value();
  return out;
}

std::string unit_key(std::uint64_t j) { return "covert:" + std::to_string(j); }

const char* const kMapKey = "covert:map";

void emit_oracle(Outcome& out) {
  const Instance instance = locate(kInstance);
  out.unit(kMapKey,
           unit_output("map", map_digest(instance.located.result.map), instance.exact));
  for (std::uint64_t j = 0; j < kUnits; ++j) {
    const UnitResult r = transmit(instance, make_unit(instance, j));
    out.attempt(true);
    out.unit(unit_key(j), unit_output("decoded", r.digest, instance.exact));
  }
}

/// Seconds per ThermalModel::step on the instance's die, at the unit's
/// step size, over a fixed number of steps inside one span.
double step_seconds(const Instance& instance, const Unit& unit, double dt) {
  cl::thermal::ThermalModel model = make_model(instance, unit);
  constexpr int kSteps = 20000;
  cl::obs::Span span("thermal.step", "corebench");
  span.arg("steps", cl::obs::Json(kSteps));
  for (int i = 0; i < kSteps; ++i) model.step(dt);
  return span.stop() / kSteps;
}

}  // namespace

void run_covert(const Args& args, Outcome& out) {
  if (args.mode == "oracle") {
    emit_oracle(out);
    return;
  }
  const std::uint64_t j0 = start_slot(args.seed, 0xC0E8, kUnits);
  if (args.mode == "inputs") {
    Fnv fnv;
    fnv.u64(j0);
    out.field("inputs_digest", cl::obs::Json(hex16(fnv.value())));
    return;
  }

  // Set-up: locate the instance and build the first unit's thermal model.
  std::vector<double> setups;
  const auto set_up = [&setups, j0] {
    const Clock::time_point start = Clock::now();
    Instance located = locate(kInstance);
    (void)make_model(located, make_unit(located, j0));
    setups.push_back(seconds_between(start, Clock::now()));
    return located;
  };
  const Instance instance = set_up();
  out.unit(kMapKey,
           unit_output("map", map_digest(instance.located.result.map), instance.exact));

  auto& tracer = cl::obs::Tracer::global();
  if (args.trace) {
    tracer.set_enabled(args.tracer);
    LayerCounts counts;
    const TracedLocate located =
        traced_locate(kModel, kInstance, cl::sim::InstanceFactory(), counts);
    out.attempt(located.success);
    out.unit(kMapKey, unit_output("map", located.digest, located.exact));
    emit_counts(counts, out);
  }

  std::vector<double> unit_ms;
  std::vector<double> cycle_rates;
  double simulated = 0.0;
  double host = 0.0;
  double prefix_errors = 0.0;
  double prefix_bits = 0.0;
  double steps = 0.0;
  double dt = 0.0;  ///< the program's step size on the first unit
  double overhead_on = 0.0;
  double overhead_off = 0.0;
  double units_on = 0.0;
  double units_off = 0.0;
  Fnv prefix;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t k = 0; k < kPrefixUnits || seconds_between(start, Clock::now()) < args.seconds;
       ++k) {
    // The other set-ups are spread over the run, so a moment of host
    // slowness at its start does not move setup_s.
    if (!args.trace && setups.size() < static_cast<std::size_t>(kSetups) &&
        seconds_between(start, Clock::now()) >=
            args.seconds * static_cast<double>(setups.size()) / kSetups) {
      (void)set_up();
    }
    const std::uint64_t j = (j0 + k) % kUnits;
    const Unit unit = make_unit(instance, j);
    // Traced runs alternate the tracer per cycle of the four unit kinds,
    // for the overhead ratio.
    const bool traced_cycle = (k / 4) % 2 == 0;
    const bool span_this = args.trace && args.tracer && traced_cycle;
    tracer.set_enabled(span_this);
    UnitResult r;
    {
      cl::obs::Span span("covert.unit", "corebench");
      r = transmit(instance, unit);
    }
    if (args.trace) {
      (traced_cycle ? overhead_on : overhead_off) += r.host_seconds;
      (traced_cycle ? units_on : units_off) += 1;
      const double bit_period = 1.0 / unit.config.bit_rate_bps;
      for (std::size_t c = 0; c < unit.channels.size(); ++c) {
        double nominal = unit.config.start_time;
        if (unit.config.stagger_channels && unit.channels.size() > 1) {
          nominal += bit_period * static_cast<double>(c) /
                     static_cast<double>(unit.channels.size());
        }
        cl::obs::Span span("covert.decode", "corebench");
        const cl::covert::DecodeResult decoded = cl::covert::decode_trace(
            r.result.traces[c], bit_period, nominal, cl::covert::sync_signature(),
            static_cast<int>(unit.channels[c].payload.size()), unit.config.decoder);
        out.attempt(decoded.payload == r.result.channels[c].decoded);
      }
      // The receiver samples once per model step, so its trace holds the
      // program's step count and its step size.
      const cl::covert::Trace& trace = r.result.traces.front();
      if (k < kPrefixUnits) steps += static_cast<double>(trace.size());
      if (k == 0 && trace.size() > 1) dt = trace[1].time - trace[0].time;
    }
    tracer.set_enabled(false);
    out.attempt(r.result.channels.size() == unit.channels.size());
    out.unit(unit_key(j), unit_output("decoded", r.digest, instance.exact));
    unit_ms.push_back(r.host_seconds * 1e3);
    simulated += r.result.simulated_seconds;
    host += r.host_seconds;
    if (k % 4 == 3) {
      // One cycle holds each unit kind once; work_per_s is the
      // kRateQuantile of the cycles' rates.
      cycle_rates.push_back(simulated / host);
      simulated = 0.0;
      host = 0.0;
    }
    if (k < kPrefixUnits) {
      prefix.u64(r.digest);
      prefix_errors += r.bit_errors;
      prefix_bits += r.bits;
    }
  }
  out.field("run_digest", cl::obs::Json(hex16(prefix.value())));

  if (!args.trace) {
    out.metric("setup_s", quantile(setups, kSetupQuantile));
    out.metric("work_per_s", quantile(cycle_rates, kRateQuantile));
    out.field("latency_p50_ms", cl::obs::Json(quantile(unit_ms, 0.5)));
    out.metric("latency_ms_tail", quantile(unit_ms, 0.9));
    out.field("latency_samples", cl::obs::Json(unit_ms.size()));
    out.metric("map_exact_ratio", instance.exact ? 1.0 : 0.0);
    return;
  }
  tracer.set_enabled(args.tracer);
  out.metric("thermal.step_us", step_seconds(instance, make_unit(instance, j0), dt) * 1e6);
  tracer.set_enabled(false);
  out.metric("thermal.steps", steps / static_cast<double>(kPrefixUnits));
  out.metric("covert.ber", prefix_errors / prefix_bits);
  out.metric("trace.units", static_cast<double>(kPrefixUnits));
  out.metric("trace.overhead_ratio",
             overhead_off > 0 ? (overhead_on / units_on) / (overhead_off / units_off) : 0.0);
}

}  // namespace corebench
