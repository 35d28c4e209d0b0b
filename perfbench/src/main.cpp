// mocha_perfbench: runs one benchmark workload and prints its report as a
// single JSON line on stdout (run.py reads it; see README.md).
//
//   mocha_perfbench --workload dse|exec|serve --seed N --seconds S
//                   --trace 0|1 [--smoke] [--spans FILE]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "fabric/config.hpp"
#include "obs/manifest.hpp"
#include "util/json.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "mocha_perfbench: " << problem
            << "\nusage: mocha_perfbench --workload dse|exec|serve --seed N "
               "--seconds S --trace 0|1 [--smoke] [--spans FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "dse" && args.workload != "exec" &&
      args.workload != "serve") {
    usage("--workload must be dse, exec or serve");
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

std::string report_json(const Args& args, const perfbench::Result& result) {
  using mocha::util::JsonWriter;
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("mocha.perfbench.v1");
  json.key("workload").value(args.workload);
  json.key("seed").value(static_cast<std::uint64_t>(args.seed));
  json.key("seconds").value(args.seconds);
  json.key("trace").value(args.trace);
  json.key("smoke").value(args.smoke);
  json.key("env").begin_object();
  json.key("manifest");
  mocha::obs::RunManifest manifest =
      mocha::obs::RunManifest::current("mocha_perfbench");
  // Every workload runs MOCHA's default fabric with the EDP objective.
  const mocha::fabric::FabricConfig fabric =
      mocha::fabric::mocha_default_config();
  manifest.network = args.workload;
  manifest.accelerator = "mocha";
  manifest.objective = "edp";
  manifest.batch = 1;
  manifest.sram_bytes = fabric.sram_bytes;
  manifest.pe_rows = fabric.pe_rows;
  manifest.pe_cols = fabric.pe_cols;
  manifest.clock_ghz = fabric.clock_ghz;
  manifest.write_json(json);
  json.key("nproc").value(perfbench::nproc());
  json.key("pool_width").value(result.pool_width);
  json.key("thread_budget").value(result.thread_budget);
  json.key("seed").value(static_cast<std::uint64_t>(args.seed));
  json.end_object();
  json.key("correct").value(result.failed == 0 && result.failures.empty());
  json.key("attempted").value(result.attempted);
  json.key("failed").value(result.failed);
  json.key("failures").begin_array();
  for (const std::string& f : result.failures) json.value(f);
  json.end_array();
  json.key("metrics").begin_array();
  for (const perfbench::Metric& m : result.metrics) {
    json.begin_object();
    json.key("name").value(m.name);
    json.key("unit").value(m.unit);
    json.key("value").value(m.value);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  // Extras are pre-rendered JSON values spliced in before the closing brace.
  std::string text = json.str();
  text.pop_back();
  for (const auto& [key, value] : result.extras) {
    text += ",\"" + key + "\":" + value;
  }
  return text + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::Result result;
  try {
    if (args.workload == "dse") {
      perfbench::run_dse(args, result);
    } else if (args.workload == "exec") {
      perfbench::run_exec(args, result);
    } else {
      perfbench::run_serve(args, result);
    }
  } catch (const std::exception& e) {
    std::cerr << "mocha_perfbench: " << args.workload << " aborted: "
              << e.what() << "\n";
    return 3;
  }
  std::cout << report_json(args, result) << std::endl;
  return 0;
}
