#pragma once
// Shared plumbing of the corebench binary: arguments, digests, order
// statistics and the one-line JSON outcome that corebench/run.py reads.
//
// Every workload draws its inputs from a fixed *universe* of units whose
// correct outputs are stored under corebench/oracle/. The run's --seed
// only chooses where in the universe the run starts, so any seed can be
// checked against the stored answers while the same seed always yields
// the same inputs.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/core_map.hpp"
#include "obs/json.hpp"
#include "sim/instance_factory.hpp"

namespace corebench {

using Clock = std::chrono::steady_clock;

/// Set-ups per run (serve, covert), spread over the run.
constexpr int kSetups = 9;
/// Quantile of a run's set-up times that setup_s reports: like
/// kRateQuantile, on the side of the host's usual slow state (below), and
/// clear of a stall that catches one or two set-ups.
constexpr double kSetupQuantile = 0.75;

/// Quantile of the per-batch rates (serve chunk, survey round, covert
/// cycle) that work_per_s reports: the rate nine batches in ten reach.
/// The measuring host is shared, and its speed moves by up to 1.6x in
/// phases of seconds to minutes as its neighbours' load comes and goes,
/// the slow state being the usual one. The median followed how much of a
/// run fell in a fast phase; the tenth percentile follows the usual state.
constexpr double kRateQuantile = 0.1;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct Args {
  std::string workload;
  std::string mode = "run";  ///< run | oracle | inputs
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Records spans while tracing (off: the traced code path runs with
  /// the tracer disabled, for the tracing-on/off count self-test).
  bool tracer = true;
  /// Service workers of the serve workloads; 0 takes the workload's own.
  int jobs = 0;
  std::string trace_file;
};

/// FNV-1a 64 over explicitly fed fields.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void i64(std::int64_t value) { bytes(&value, sizeof value); }
  void str(const std::string& value);
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string hex16(std::uint64_t value);

/// Digest of every field of a map: equal only for byte-identical maps.
std::uint64_t map_digest(const corelocate::core::CoreMap& map);

/// Digest of a map's identity fields and its CHA positions translated to
/// the origin and, of the map and its horizontal mirror, the one whose
/// (row, col) list is smaller: equal for maps that are the same modulo
/// translation and the mirror. Computed here rather than through
/// CoreMap::canonical so the stored answers do not depend on that
/// function's output format.
std::uint64_t canonical_map_digest(const corelocate::core::CoreMap& map);

/// The paper method's accuracy criterion (EXPERIMENTS.md Table II, "maps
/// exact"): every core tile placed right, modulo translation and the
/// horizontal mirror.
bool map_exact(const corelocate::core::CoreMap& map,
               const corelocate::sim::InstanceConfig& truth);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
/// Mean of the share 1 - q of the values that are largest; 0 for an
/// empty sample.
double tail_mean(std::vector<double> values, double q);

/// Peak resident set size of this process so far.
double peak_rss_mib();

/// Start of a run's walk through a universe of `slots` slots.
std::uint64_t start_slot(std::uint64_t seed, std::uint64_t salt, std::uint64_t slots);

/// What one use of a universe unit produced: digests by kind ("record",
/// "map", "decoded"), "exact" for whether its map is exact, and in
/// oracle mode any fact make_oracle.py sorts the outputs by.
using Output = corelocate::obs::Json::Object;

/// The usual output: one digest of `kind` and the map's exactness.
inline Output unit_output(const std::string& kind, std::uint64_t digest, bool exact) {
  return {{kind, corelocate::obs::Json(hex16(digest))}, {"exact", corelocate::obs::Json(exact)}};
}

/// The result of one run, printed as one JSON line for run.py.
class Outcome {
 public:
  /// One attempted operation; `ok` false when the program reported failure.
  void attempt(bool ok);
  /// Universe unit `key` produced `output` on one use. Every distinct
  /// output is kept with its use count, so run.py checks each against
  /// the stored answers.
  void unit(const std::string& key, const Output& output);
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  void field(const std::string& key, corelocate::obs::Json value) {
    fields_[key] = std::move(value);
  }
  corelocate::obs::Json to_json() const;

 private:
  struct Use {
    Output output;
    std::uint64_t count = 0;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  /// key -> serialized output -> its uses.
  std::map<std::string, std::map<std::string, Use>> units_;
  std::map<std::string, double> metrics_;
  std::map<std::string, corelocate::obs::Json> fields_;
};

void run_survey(const Args& args, Outcome& out);
void run_serve(const Args& args, Outcome& out, bool hot);
void run_covert(const Args& args, Outcome& out);

/// Deterministic per-layer work done while locating instances, summed.
struct LayerCounts {
  double instances = 0;
  double bl_cycles = 0;
  double llc_lookups = 0;
  double eviction_set_lines = 0;
  double observations = 0;
  double ilp_nodes = 0;
  double ilp_lp_iterations = 0;
};

/// Locates instance (`model`, `seed`) the way fleet::locate_instance
/// does, but through the layers' public calls one by one, each inside
/// its own corebench span (sim.factory, sim.construct, core.step1,
/// core.step2, core.step3, sim.destroy) under one "instance" span.
/// Adds the instance's work counts to `counts`.
struct TracedLocate {
  bool success = false;
  std::uint64_t digest = 0;  ///< map_digest of the located map
  bool exact = false;        ///< map_exact against the instance's ground truth
};
TracedLocate traced_locate(corelocate::sim::XeonModel model, std::uint64_t seed,
                           const corelocate::sim::InstanceFactory& factory,
                           LayerCounts& counts);

/// Reports `counts` per located instance, with the instance count as
/// trace.units.
void emit_counts(const LayerCounts& counts, Outcome& out);

}  // namespace corebench
