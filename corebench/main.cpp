// corebench: the measuring half of the corelocate benchmark. run.py
// builds it, runs one workload, and turns the JSON line this prints into
// the benchmark result (oracle check, metrics, trace analysis).
//
//   corebench --workload survey|serve-hot|serve-cold|covert --seed N
//             --seconds S [--trace 0|1] [--trace-file PATH] [--jobs N]
//             [--mode run|oracle|inputs] [--tracer 0|1]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace corebench {

using corelocate::obs::Json;

void Fnv::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001B3ULL;
  }
}

void Fnv::str(const std::string& value) {
  u64(value.size());
  bytes(value.data(), value.size());
}

std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

namespace {

void add_identity(Fnv& fnv, const corelocate::core::CoreMap& map) {
  fnv.u64(map.ppin);
  fnv.u64(map.os_core_to_cha.size());
  for (const int cha : map.os_core_to_cha) fnv.i64(cha);
  fnv.u64(map.llc_only_chas.size());
  for (const int cha : map.llc_only_chas) fnv.i64(cha);
}

void add_positions(Fnv& fnv, const std::vector<std::pair<int, int>>& positions) {
  fnv.u64(positions.size());
  for (const auto& [row, col] : positions) {
    fnv.i64(row);
    fnv.i64(col);
  }
}

}  // namespace

std::uint64_t map_digest(const corelocate::core::CoreMap& map) {
  Fnv fnv;
  fnv.i64(map.rows);
  fnv.i64(map.cols);
  add_identity(fnv, map);
  std::vector<std::pair<int, int>> positions;
  for (const auto& pos : map.cha_position) positions.emplace_back(pos.row, pos.col);
  add_positions(fnv, positions);
  return fnv.value();
}

std::uint64_t canonical_map_digest(const corelocate::core::CoreMap& map) {
  int min_row = 0, min_col = 0, max_col = 0;
  for (std::size_t i = 0; i < map.cha_position.size(); ++i) {
    const auto& pos = map.cha_position[i];
    min_row = i == 0 ? pos.row : std::min(min_row, pos.row);
    min_col = i == 0 ? pos.col : std::min(min_col, pos.col);
    max_col = i == 0 ? pos.col : std::max(max_col, pos.col);
  }
  std::vector<std::pair<int, int>> straight;
  std::vector<std::pair<int, int>> mirrored;
  for (const auto& pos : map.cha_position) {
    straight.emplace_back(pos.row - min_row, pos.col - min_col);
    mirrored.emplace_back(pos.row - min_row, max_col - pos.col);
  }
  Fnv fnv;
  add_identity(fnv, map);
  add_positions(fnv, std::min(straight, mirrored));
  return fnv.value();
}

bool map_exact(const corelocate::core::CoreMap& map,
               const corelocate::sim::InstanceConfig& truth) {
  return corelocate::core::score_against_truth(map, truth).all_cores_correct();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail_mean(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto first = std::min(static_cast<std::size_t>(q * static_cast<double>(values.size())),
                              values.size() - 1);
  double sum = 0.0;
  for (std::size_t i = first; i < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - first);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t start_slot(std::uint64_t seed, std::uint64_t salt, std::uint64_t slots) {
  return corelocate::util::mix64(seed ^ corelocate::util::mix64(salt)) % slots;
}

void Outcome::attempt(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Outcome::unit(const std::string& key, const Output& output) {
  Use& use = units_[key][Json(output).dump()];
  if (use.count == 0) use.output = output;
  ++use.count;
}

Json Outcome::to_json() const {
  Json out = Json::object();
  out["attempted"] = Json(static_cast<double>(attempted_));
  out["failed"] = Json(static_cast<double>(failed_));
  Json units = Json::object();
  for (const auto& [key, uses] : units_) {
    Json entry = Json::array();
    for (const auto& [serialized, use] : uses) {
      Json item = Json::object();
      item["output"] = Json(use.output);
      item["uses"] = Json(static_cast<double>(use.count));
      entry.push_back(std::move(item));
    }
    units[key] = std::move(entry);
  }
  out["units"] = std::move(units);
  Json metrics = Json::object();
  for (const auto& [name, value] : metrics_) metrics[name] = Json(value);
  out["metrics"] = std::move(metrics);
  for (const auto& [key, value] : fields_) out[key] = value;
  return out;
}

}  // namespace corebench

namespace {

corebench::Args parse_args(int argc, char** argv) {
  corebench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--tracer") {
      args.tracer = value == "1";
    } else if (flag == "--jobs") {
      args.jobs = std::stoi(value);
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  if (args.jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
  if (args.trace && args.tracer && args.trace_file.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-file");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const corebench::Args args = parse_args(argc, argv);
    corebench::Outcome out;
    if (args.workload == "survey") {
      corebench::run_survey(args, out);
    } else if (args.workload == "serve-hot" || args.workload == "serve-cold") {
      corebench::run_serve(args, out, args.workload == "serve-hot");
    } else if (args.workload == "covert") {
      corebench::run_covert(args, out);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    auto& tracer = corelocate::obs::Tracer::global();
    if (args.trace && args.tracer) {
      tracer.set_enabled(false);
      tracer.write_chrome_trace(args.trace_file);
    }
    out.field("peak_rss_mib", corelocate::obs::Json(corebench::peak_rss_mib()));
    std::cout << out.to_json().dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "corebench: " << e.what() << "\n";
    return 1;
  }
}
