#include "fault/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace mocha::fault {

namespace {

/// Ids in range, no duplicates, at least `min_survivors` of `total` left.
void check_id_list(const std::vector<int>& ids, int total, int min_survivors,
                   const char* what) {
  std::set<int> seen;
  for (int id : ids) {
    MOCHA_CHECK(id >= 0 && id < total,
                what << " id " << id << " outside [0, " << total << ")");
    MOCHA_CHECK(seen.insert(id).second, "duplicate " << what << " id " << id);
  }
  MOCHA_CHECK(total - static_cast<int>(seen.size()) >= min_survivors,
              "fault scenario leaves fewer than " << min_survivors << " live "
                                                  << what << "(s)");
}

/// Draws `count` distinct ids from [0, total) — a partial Fisher-Yates over
/// an explicit id vector, deterministic from the Rng state.
std::vector<int> sample_ids(util::Rng& rng, int total, int count) {
  std::vector<int> ids(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) ids[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(i, total - 1));
    std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
  }
  ids.resize(static_cast<std::size_t>(count));
  std::sort(ids.begin(), ids.end());
  return ids;
}

double json_number(const util::JsonValue& value, const std::string& what) {
  MOCHA_CHECK(value.kind == util::JsonValue::Kind::Number,
              what << " must be a number");
  return value.number;
}

/// A JSON number that is an integer representable as T: in
/// [min(T), 2^digits(T)), so the conversion below is always defined.
template <typename T>
T json_integer(const util::JsonValue& value, const std::string& what) {
  const double num = json_number(value, what);
  MOCHA_CHECK(num == std::floor(num), what << " " << num
                                           << " not an integer");
  MOCHA_CHECK(num >= static_cast<double>(std::numeric_limits<T>::min()) &&
                  num < std::ldexp(1.0, std::numeric_limits<T>::digits),
              what << " " << num << " out of range");
  return static_cast<T>(num);
}

std::vector<int> json_int_array(const util::JsonValue& value,
                                const char* what) {
  MOCHA_CHECK(value.is_array(), what << " must be a JSON array");
  std::vector<int> out;
  out.reserve(value.array.size());
  for (const util::JsonValue& item : value.array) {
    out.push_back(json_integer<int>(item, std::string(what) + " entry"));
  }
  return out;
}

}  // namespace

bool FaultModel::any() const {
  return !dead_pes.empty() || !dead_sram_banks.empty() ||
         dead_codec_units > 0 || dram_bandwidth_factor < 1.0 ||
         codec_bit_flip_rate > 0.0 || exec_stall_ms > 0;
}

void FaultModel::validate(const fabric::FabricConfig& base) const {
  base.validate();
  MOCHA_CHECK(base.dead_pes.empty(),
              "fault scenario applied to an already-degraded config");
  check_id_list(dead_pes, base.total_pes(), 1, "PE");
  check_id_list(dead_sram_banks, base.sram_banks, 1, "SRAM bank");
  MOCHA_CHECK(dead_codec_units >= 0 && dead_codec_units <= base.codec_units,
              "dead_codec_units=" << dead_codec_units << " of "
                                  << base.codec_units);
  MOCHA_CHECK(dram_bandwidth_factor > 0.0 && dram_bandwidth_factor <= 1.0,
              "dram_bandwidth_factor=" << dram_bandwidth_factor);
  MOCHA_CHECK(codec_bit_flip_rate >= 0.0 && codec_bit_flip_rate <= 1.0,
              "codec_bit_flip_rate=" << codec_bit_flip_rate);
  MOCHA_CHECK(exec_stall_ms >= 0 && exec_stall_ms <= 60'000,
              "exec_stall_ms=" << exec_stall_ms << " outside [0, 60000]");
}

std::string FaultModel::summary(const fabric::FabricConfig& base) const {
  std::ostringstream os;
  os << "pe=" << base.total_pes() - static_cast<int>(dead_pes.size()) << "/"
     << base.total_pes()
     << " banks=" << base.sram_banks - static_cast<int>(dead_sram_banks.size())
     << "/" << base.sram_banks
     << " codecs=" << base.codec_units - dead_codec_units << "/"
     << base.codec_units << " dram="
     << static_cast<int>(std::lround(dram_bandwidth_factor * 100.0)) << "%";
  if (codec_bit_flip_rate > 0.0) os << " flip=" << codec_bit_flip_rate;
  if (exec_stall_ms > 0) os << " stall=" << exec_stall_ms << "ms";
  return os.str();
}

std::string FaultModel::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mocha.fault.v1");
  json.key("dead_pes").begin_array();
  for (int id : dead_pes) json.value(id);
  json.end_array();
  json.key("dead_sram_banks").begin_array();
  for (int id : dead_sram_banks) json.value(id);
  json.end_array();
  json.key("dead_codec_units").value(dead_codec_units);
  json.key("dram_bandwidth_factor").value(dram_bandwidth_factor);
  json.key("codec_bit_flip_rate").value(codec_bit_flip_rate);
  json.key("exec_stall_ms").value(exec_stall_ms);
  json.key("seed").value(static_cast<std::uint64_t>(seed));
  json.end_object();
  return json.str();
}

FaultModel FaultModel::from_json(std::string_view text) {
  const util::JsonValue doc = util::parse_json(text);
  MOCHA_CHECK(doc.is_object(), "fault spec must be a JSON object");
  FaultModel model;
  for (const auto& [key, value] : doc.object) {
    if (key == "schema") {
      MOCHA_CHECK(value.string == "mocha.fault.v1",
                  "unknown fault schema '" << value.string << "'");
    } else if (key == "dead_pes") {
      model.dead_pes = json_int_array(value, "dead_pes");
    } else if (key == "dead_sram_banks") {
      model.dead_sram_banks = json_int_array(value, "dead_sram_banks");
    } else if (key == "dead_codec_units") {
      model.dead_codec_units = json_integer<int>(value, "dead_codec_units");
    } else if (key == "dram_bandwidth_factor") {
      model.dram_bandwidth_factor =
          json_number(value, "dram_bandwidth_factor");
    } else if (key == "codec_bit_flip_rate") {
      model.codec_bit_flip_rate = json_number(value, "codec_bit_flip_rate");
    } else if (key == "exec_stall_ms") {
      model.exec_stall_ms = json_integer<std::int64_t>(value, "exec_stall_ms");
    } else if (key == "seed") {
      model.seed = json_integer<std::uint64_t>(value, "seed");
    } else {
      MOCHA_CHECK(false, "unknown fault spec key '" << key << "'");
    }
  }
  return model;
}

FaultModel FaultModel::random_scenario(const fabric::FabricConfig& base,
                                       double kill_fraction,
                                       std::uint64_t seed) {
  base.validate();
  MOCHA_CHECK(kill_fraction >= 0.0 && kill_fraction < 1.0,
              "kill_fraction=" << kill_fraction);
  util::Rng rng(seed);
  FaultModel model;
  model.seed = seed;
  const auto kill = [&](int total, int max_dead) {
    const int want =
        static_cast<int>(std::lround(kill_fraction * static_cast<double>(total)));
    return std::min(want, max_dead);
  };
  model.dead_pes =
      sample_ids(rng, base.total_pes(), kill(base.total_pes(),
                                             base.total_pes() - 1));
  model.dead_sram_banks =
      sample_ids(rng, base.sram_banks, kill(base.sram_banks,
                                            base.sram_banks - 1));
  model.dead_codec_units = kill(base.codec_units, base.codec_units);
  model.validate(base);
  return model;
}

std::vector<FaultModel> fleet_scenarios(const fabric::FabricConfig& base,
                                        int shards, int faulty_shards,
                                        double kill_fraction,
                                        std::uint64_t seed) {
  MOCHA_CHECK(shards >= 1, "fleet_scenarios: shards=" << shards);
  MOCHA_CHECK(faulty_shards >= 0 && faulty_shards <= shards,
              "fleet_scenarios: faulty_shards=" << faulty_shards << " of "
                                                << shards);
  std::vector<FaultModel> fleet;
  fleet.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    if (i >= faulty_shards) {
      fleet.emplace_back();  // healthy
      continue;
    }
    // splitmix64 finalizer decorrelates the per-shard seed: shard k's
    // scenario does not change when the fleet is resized around it.
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(i) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    fleet.push_back(FaultModel::random_scenario(base, kill_fraction, z));
  }
  return fleet;
}

fabric::FabricConfig degraded_config(const fabric::FabricConfig& base,
                                     const FaultModel& faults) {
  faults.validate(base);
  fabric::FabricConfig config = base;

  config.dead_pes = faults.dead_pes;
  std::sort(config.dead_pes.begin(), config.dead_pes.end());
  config.dead_pes.erase(
      std::unique(config.dead_pes.begin(), config.dead_pes.end()),
      config.dead_pes.end());

  // A dead bank takes its capacity share and its port with it; the
  // scratchpad stays evenly banked over the survivors so the divisibility
  // invariant holds.
  const int live_banks =
      base.sram_banks - static_cast<int>(faults.dead_sram_banks.size());
  config.sram_bytes = (base.sram_bytes / base.sram_banks) * live_banks;
  config.sram_banks = live_banks;

  config.codec_units = base.codec_units - faults.dead_codec_units;
  if (config.codec_units <= 0) {
    config.codec_units = 0;
    config.has_compression = false;
  }

  config.dram_bytes_per_cycle = std::max(
      1, static_cast<int>(std::floor(static_cast<double>(
             base.dram_bytes_per_cycle) * faults.dram_bandwidth_factor)));

  config.validate();
  return config;
}

void record_metrics(const fabric::FabricConfig& base,
                    const FaultModel& faults) {
  MOCHA_METRIC_GAUGE("fault.active", faults.any() ? 1 : 0);
  MOCHA_METRIC_GAUGE("fault.dead_pes",
                     static_cast<std::int64_t>(faults.dead_pes.size()));
  MOCHA_METRIC_GAUGE("fault.dead_sram_banks",
                     static_cast<std::int64_t>(faults.dead_sram_banks.size()));
  MOCHA_METRIC_GAUGE("fault.dead_codec_units",
                     static_cast<std::int64_t>(faults.dead_codec_units));
  MOCHA_METRIC_GAUGE("fault.dram_bw_pct",
                     static_cast<std::int64_t>(
                         std::lround(faults.dram_bandwidth_factor * 100.0)));
  MOCHA_METRIC_GAUGE("fault.usable_pes",
                     static_cast<std::int64_t>(base.total_pes()) -
                         static_cast<std::int64_t>(faults.dead_pes.size()));
}

}  // namespace mocha::fault
