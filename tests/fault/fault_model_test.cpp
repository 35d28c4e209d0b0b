// FaultModel: scenario validation, JSON round trip, random generation, and
// the degraded-fabric derivation every downstream model consumes.
#include "fault/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "fabric/pe_array.hpp"
#include "sim/resources.hpp"

namespace mocha::fault {
namespace {

fabric::FabricConfig base() { return fabric::mocha_default_config(); }

TEST(FaultModel, HealthyScenarioIsIdentity) {
  const FaultModel model;
  EXPECT_FALSE(model.any());
  const fabric::FabricConfig degraded = degraded_config(base(), model);
  EXPECT_TRUE(degraded.dead_pes.empty());
  EXPECT_EQ(degraded.sram_bytes, base().sram_bytes);
  EXPECT_EQ(degraded.sram_banks, base().sram_banks);
  EXPECT_EQ(degraded.codec_units, base().codec_units);
  EXPECT_EQ(degraded.dram_bytes_per_cycle, base().dram_bytes_per_cycle);
  EXPECT_TRUE(degraded.has_compression);
  EXPECT_EQ(degraded.usable_pes(), degraded.total_pes());
}

TEST(FaultModel, ValidateRejectsBadScenarios) {
  FaultModel model;
  model.dead_pes = {-1};
  EXPECT_THROW(model.validate(base()), CheckFailure);
  model.dead_pes = {base().total_pes()};
  EXPECT_THROW(model.validate(base()), CheckFailure);
  model.dead_pes = {3, 3};
  EXPECT_THROW(model.validate(base()), CheckFailure);
  model.dead_pes.clear();
  for (int id = 0; id < base().total_pes(); ++id) model.dead_pes.push_back(id);
  EXPECT_THROW(model.validate(base()), CheckFailure);  // no survivors
  model.dead_pes.clear();

  model.dead_codec_units = base().codec_units + 1;
  EXPECT_THROW(model.validate(base()), CheckFailure);
  model.dead_codec_units = 0;

  model.dram_bandwidth_factor = 0.0;
  EXPECT_THROW(model.validate(base()), CheckFailure);
  model.dram_bandwidth_factor = 1.5;
  EXPECT_THROW(model.validate(base()), CheckFailure);
  model.dram_bandwidth_factor = 1.0;

  model.codec_bit_flip_rate = -0.1;
  EXPECT_THROW(model.validate(base()), CheckFailure);
}

TEST(FaultModel, RejectsAlreadyDegradedBase) {
  fabric::FabricConfig degraded = base();
  degraded.dead_pes = {5};
  const FaultModel model;
  EXPECT_THROW(model.validate(degraded), CheckFailure);
}

TEST(FaultModel, JsonRoundTrip) {
  FaultModel model;
  model.dead_pes = {3, 17, 40};
  model.dead_sram_banks = {1, 6};
  model.dead_codec_units = 1;
  model.dram_bandwidth_factor = 0.5;
  model.codec_bit_flip_rate = 0.001;
  model.seed = 99;
  const FaultModel back = FaultModel::from_json(model.to_json());
  EXPECT_EQ(back.dead_pes, model.dead_pes);
  EXPECT_EQ(back.dead_sram_banks, model.dead_sram_banks);
  EXPECT_EQ(back.dead_codec_units, model.dead_codec_units);
  EXPECT_DOUBLE_EQ(back.dram_bandwidth_factor, model.dram_bandwidth_factor);
  EXPECT_DOUBLE_EQ(back.codec_bit_flip_rate, model.codec_bit_flip_rate);
  EXPECT_EQ(back.seed, model.seed);
}

TEST(FaultModel, FromJsonRejectsGarbage) {
  EXPECT_THROW(FaultModel::from_json("not json"), CheckFailure);
  EXPECT_THROW(FaultModel::from_json("[1, 2]"), CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"surprise": 1})"), CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"schema": "other.v9"})"),
               CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"dead_pes": [1.5]})"), CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"dead_pes": 3})"), CheckFailure);
  // Wrong kinds: a string must not read as 0 (the healthy value).
  for (const char* key : {"dead_codec_units", "dram_bandwidth_factor",
                          "codec_bit_flip_rate", "exec_stall_ms", "seed"}) {
    EXPECT_THROW(
        FaultModel::from_json(std::string("{\"") + key + "\": \"2\"}"),
        CheckFailure)
        << key;
  }
  EXPECT_THROW(FaultModel::from_json(R"({"dead_codec_units": null})"),
               CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"dead_pes": ["4"]})"), CheckFailure);
  // Non-integers in integer fields.
  EXPECT_THROW(FaultModel::from_json(R"({"dead_codec_units": 1.5})"),
               CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"exec_stall_ms": 2.5})"),
               CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"seed": 0.5})"), CheckFailure);
  // Outside the target type's range, where the conversion is undefined.
  EXPECT_THROW(FaultModel::from_json(R"({"seed": 1e300})"), CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"seed": -1})"), CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"seed": 18446744073709551616})"),
               CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"dead_pes": [4294967297]})"),
               CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"dead_sram_banks": [-2147483649]})"),
               CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"dead_codec_units": 2147483648})"),
               CheckFailure);
  EXPECT_THROW(FaultModel::from_json(R"({"exec_stall_ms": 9.3e18})"),
               CheckFailure);
  // The edges of each range still parse.
  EXPECT_EQ(FaultModel::from_json(R"({"dead_codec_units": 2147483647})")
                .dead_codec_units,
            std::numeric_limits<int>::max());
  EXPECT_EQ(FaultModel::from_json(R"({"dead_pes": [-2147483648]})").dead_pes,
            std::vector<int>{std::numeric_limits<int>::min()});
  EXPECT_EQ(FaultModel::from_json(R"({"seed": 0})").seed, 0u);
}

TEST(FaultModel, RandomScenarioKillsRequestedFraction) {
  const FaultModel model = FaultModel::random_scenario(base(), 0.25, 7);
  EXPECT_EQ(model.dead_pes.size(), 16u);       // 25% of 64
  EXPECT_EQ(model.dead_sram_banks.size(), 2u); // 25% of 8
  EXPECT_TRUE(std::is_sorted(model.dead_pes.begin(), model.dead_pes.end()));
  // Deterministic from the seed.
  const FaultModel again = FaultModel::random_scenario(base(), 0.25, 7);
  EXPECT_EQ(again.dead_pes, model.dead_pes);
  const FaultModel other = FaultModel::random_scenario(base(), 0.25, 8);
  EXPECT_NE(other.dead_pes, model.dead_pes);
}

TEST(FaultModel, RandomScenarioAlwaysLeavesSurvivors) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const FaultModel model = FaultModel::random_scenario(base(), 0.95, seed);
    const fabric::FabricConfig degraded = degraded_config(base(), model);
    EXPECT_GE(degraded.usable_pes(), 1);
    EXPECT_GE(degraded.sram_banks, 1);
  }
}

TEST(FaultModel, DegradedConfigShrinksResources) {
  FaultModel model;
  model.dead_pes = {9, 0, 63};  // unsorted on purpose
  model.dead_sram_banks = {2, 5};
  model.dead_codec_units = 1;
  model.dram_bandwidth_factor = 0.5;
  const fabric::FabricConfig degraded = degraded_config(base(), model);
  EXPECT_EQ(degraded.dead_pes, (std::vector<int>{0, 9, 63}));
  EXPECT_EQ(degraded.usable_pes(), 61);
  EXPECT_EQ(degraded.sram_banks, 6);
  EXPECT_EQ(degraded.sram_bytes, (base().sram_bytes / 8) * 6);
  EXPECT_EQ(degraded.codec_units, 1);
  EXPECT_TRUE(degraded.has_compression);
  EXPECT_EQ(degraded.dram_bytes_per_cycle, base().dram_bytes_per_cycle / 2);
  degraded.validate();
}

TEST(FaultModel, AllCodecsDeadDisablesCompression) {
  FaultModel model;
  model.dead_codec_units = base().codec_units;
  const fabric::FabricConfig degraded = degraded_config(base(), model);
  EXPECT_EQ(degraded.codec_units, 0);
  EXPECT_FALSE(degraded.has_compression);
  degraded.validate();
}

TEST(FaultModel, DramFactorNeverReachesZeroBytes) {
  FaultModel model;
  model.dram_bandwidth_factor = 0.01;
  const fabric::FabricConfig degraded = degraded_config(base(), model);
  EXPECT_GE(degraded.dram_bytes_per_cycle, 1);
}

TEST(FaultModel, SummaryNamesSurvivors) {
  FaultModel model;
  model.dead_pes = {0, 1};
  model.dead_sram_banks = {7};
  model.dead_codec_units = 2;
  EXPECT_EQ(model.summary(base()), "pe=62/64 banks=7/8 codecs=0/2 dram=100%");
}

// ---- Spatial damage mapped through the group partition ----

TEST(PeArrayDegraded, DeadCellsLandInTheirGroups) {
  // 8x8 grid, 4 groups -> 2x2 partition of 4x4 rectangles. Kill all of the
  // top-left rectangle (rows 0-3, cols 0-3).
  fabric::FabricConfig config = base();
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) config.dead_pes.push_back(r * 8 + c);
  }
  std::sort(config.dead_pes.begin(), config.dead_pes.end());
  const fabric::PeArray array(config, 4);
  EXPECT_EQ(array.group_count(), 4);
  EXPECT_EQ(array.live_group_count(), 3);
  EXPECT_EQ(array.min_group_pes(), 16);       // physical view unchanged
  EXPECT_EQ(array.min_live_group_pes(), 16);  // survivors are intact

  // The same damage under a 1-group partition just loses capacity.
  const fabric::PeArray whole(config, 1);
  EXPECT_EQ(whole.live_group_count(), 1);
  EXPECT_EQ(whole.min_live_group_pes(), 48);
}

TEST(PeArrayDegraded, SingleDeadPeShrinksOneGroup) {
  fabric::FabricConfig config = base();
  config.dead_pes = {0};
  const fabric::PeArray array(config, 4);
  EXPECT_EQ(array.live_group_count(), 4);
  EXPECT_EQ(array.min_live_group_pes(), 15);
}

TEST(ResourcesDegraded, LayoutCapacityDropsToLiveGroups) {
  fabric::FabricConfig config = base();
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) config.dead_pes.push_back(r * 8 + c);
  }
  std::sort(config.dead_pes.begin(), config.dead_pes.end());
  const sim::ResourceLayout layout = sim::make_resource_layout(config, 4);
  EXPECT_EQ(layout.specs[static_cast<std::size_t>(layout.pe)].capacity, 3);
  const sim::ResourceLayout healthy =
      sim::make_resource_layout(base(), 4);
  EXPECT_EQ(healthy.specs[static_cast<std::size_t>(healthy.pe)].capacity, 4);
}

TEST(ConfigDegraded, ValidateEnforcesSortedUniqueDeadPes) {
  fabric::FabricConfig config = base();
  config.dead_pes = {5, 3};
  EXPECT_THROW(config.validate(), CheckFailure);
  config.dead_pes = {3, 3};
  EXPECT_THROW(config.validate(), CheckFailure);
  config.dead_pes = {3, 5};
  config.validate();
  EXPECT_EQ(config.usable_pes(), 62);
}

}  // namespace
}  // namespace mocha::fault
