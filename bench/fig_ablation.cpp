// E7 — ablation figure: value of *interleaving* and *cascading* the
// optimizations (the abstract's differentiators (ii)/(iii)). All variants
// run on the identical MOCHA hardware; only the controller's freedom grows:
//   T        tiling alone
//   T+C      tiling interleaved with compression
//   T+C+P    + feature-map parallelism
//   full     + layer merging (cascading across layers) = MOCHA
#include "common.hpp"

#include "core/morph.hpp"

int main() {
  using namespace mocha;
  struct Variant {
    const char* name;
    core::MorphOptions options;
  };
  std::vector<Variant> variants;
  {
    core::MorphOptions t;
    t.allow_compression = false;
    t.allow_fusion = false;
    t.parallelism_options = {{1, 1}};
    variants.push_back({"T (tiling)", t});
    core::MorphOptions tc = t;
    tc.allow_compression = true;
    variants.push_back({"T+C (+compression)", tc});
    core::MorphOptions tcp = tc;
    tcp.parallelism_options = core::MorphOptions{}.parallelism_options;
    variants.push_back({"T+C+P (+parallelism)", tcp});
    core::MorphOptions full = tcp;
    full.allow_fusion = true;
    variants.push_back({"full MOCHA (+merging)", full});
    core::MorphOptions huff = full;
    huff.allow_huffman = true;
    variants.push_back({"MOCHA + entropy coding", huff});
  }

  for (const nn::Network& net : nn::benchmark_networks()) {
    util::Table table({"variant", "cycles M", "GOPS", "GOPS/W", "DRAM MiB",
                       "EDP norm"});
    double base_edp = 0;
    for (const Variant& variant : variants) {
      const core::Accelerator acc(fabric::mocha_default_config(),
                                  model::default_tech(), variant.options);
      const core::RunReport report = acc.run(net);
      const double edp = report.total_energy_pj *
                         static_cast<double>(report.total_cycles);
      if (base_edp == 0) base_edp = edp;
      table.row()
          .cell(variant.name)
          .cell(static_cast<double>(report.total_cycles) / 1e6)
          .cell(report.throughput_gops())
          .cell(report.efficiency_gops_per_w())
          .cell(static_cast<double>(report.total_dram_bytes) /
                (1024.0 * 1024.0))
          .cell(edp / base_edp, 3);
    }
    bench::emit(table, "E7: optimization ablation, " + net.name);
  }
  return 0;
}
