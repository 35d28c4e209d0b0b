// Command-line plumbing shared by mocha_sim and mocha_serve: one flag
// walker accepting "--key value" and "--key=value", strict number parsing,
// the shared --isa/--help flags, the fault-scenario flags and the network
// names. Every malformed command line ends the same way: a message on
// stderr, the usage text, and exit 2 — never an abort, never a run with a
// half-understood flag.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "fault/model.hpp"
#include "nn/network.hpp"
#include "util/cpuid.hpp"

namespace mocha::cli {

/// The networks the tools know by name, as their usage texts list them.
inline std::optional<nn::Network> make_network(const std::string& name) {
  if (name == "alexnet") return nn::make_alexnet();
  if (name == "vgg16") return nn::make_vgg16();
  if (name == "lenet5") return nn::make_lenet5();
  if (name == "nin") return nn::make_nin();
  if (name == "mobilenet") return nn::make_mobilenet_v1();
  return std::nullopt;
}

/// The contents of a file a flag names. An unreadable file is a
/// command-line error: "cannot read <what> <path>" on stderr, exit 2.
inline std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read " << what << " " << path << "\n";
    std::exit(2);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reads the --faults scenario file (mocha.fault.v1); an unreadable or
/// malformed file is a command-line error.
inline fault::FaultModel load_faults(const std::string& path) {
  try {
    return fault::FaultModel::from_json(read_file(path, "fault spec"));
  } catch (const CheckFailure& e) {
    std::cerr << "error: bad fault spec " << path << ": " << e.what() << "\n";
    std::exit(2);
  }
}

/// Walks one tool's flags. `synopsis` is the usage text after the program
/// name, starting with a space and ending with a newline.
class Parser {
 public:
  Parser(int argc, char** argv, std::string synopsis)
      : argc_(argc), argv_(argv), synopsis_(std::move(synopsis)) {}

  /// Moves to the next flag; false once every argument is consumed. A
  /// "--key=value" whose flag took no value is rejected here.
  bool next() {
    if (has_inline_ && !took_value_) bad_arg(flag_ + " does not take a value");
    if (++index_ >= argc_) return false;
    flag_ = argv_[index_];
    has_inline_ = false;
    took_value_ = false;
    const std::size_t eq = flag_.find('=');
    if (flag_.rfind("--", 0) == 0 && eq != std::string::npos) {
      has_inline_ = true;
      inline_value_ = flag_.substr(eq + 1);
      flag_ = flag_.substr(0, eq);
    }
    return true;
  }

  const std::string& flag() const { return flag_; }

  /// The current flag's value: the inline "=value" or the next argument.
  std::string value() {
    took_value_ = true;
    if (has_inline_) return inline_value_;
    if (index_ + 1 >= argc_) bad_arg(flag_ + " expects a value");
    return argv_[++index_];
  }

  /// Strict integer for the current flag: the whole value must parse and
  /// land inside [lo, hi]. stoll's exceptions (and its tolerance for
  /// trailing junk like "4x") must not leak out of argument parsing.
  std::int64_t int_value(std::int64_t lo, std::int64_t hi) {
    const std::string text = value();
    std::int64_t parsed = 0;
    std::size_t used = 0;
    try {
      parsed = std::stoll(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != text.size() || text.empty()) {
      bad_arg(flag_ + " expects an integer, got '" + text + "'");
    }
    if (parsed < lo || parsed > hi) {
      bad_arg(flag_ + "=" + text + " outside [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "]");
    }
    return parsed;
  }

  /// Strict finite double for the current flag, inside [lo, hi].
  double double_value(double lo, double hi) {
    const std::string text = value();
    double parsed = 0;
    std::size_t used = 0;
    try {
      parsed = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != text.size() || text.empty() || !std::isfinite(parsed)) {
      bad_arg(flag_ + " expects a number, got '" + text + "'");
    }
    if (parsed < lo || parsed > hi) {
      std::ostringstream os;
      os << flag_ << "=" << text << " outside [" << lo << ", " << hi << "]";
      bad_arg(os.str());
    }
    return parsed;
  }

  /// The value of --network, checked against make_network's names.
  std::string network() {
    std::string name = value();
    if (!make_network(name)) bad_arg("unknown network: " + name);
    return name;
  }

  /// The flags every tool shares, and the rejection of any other flag.
  void common_flag() {
    if (flag_ == "--isa") {
      // Kernel/codec dispatch override, same values as MOCHA_KERNEL_ISA.
      // Parse errors are a CLI problem (exit 2); an unsupported-but-valid
      // ISA is a host/build problem and stays the hard MOCHA_CHECK.
      const std::string text = value();
      util::KernelIsa isa;
      if (!util::parse_isa(text, &isa)) {
        bad_arg("--isa expects scalar|avx2|neon, got '" + text + "'");
      }
      util::force_isa(isa);
    } else if (flag_ == "--help" || flag_ == "-h") {
      usage();
    } else {
      bad_arg("unknown flag: " + flag_);
    }
  }

  /// Malformed command line: explain on stderr, then usage and exit 2.
  [[noreturn]] void bad_arg(const std::string& message) const {
    std::cerr << "error: " << message << "\n";
    usage();
  }

  [[noreturn]] void usage() const {
    std::cerr << "usage: " << argv_[0] << synopsis_;
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  std::string synopsis_;
  int index_ = 0;
  std::string flag_;
  bool has_inline_ = false;
  bool took_value_ = false;
  std::string inline_value_;
};

/// The fault-scenario flags both tools take: --faults FILE (a
/// mocha.fault.v1 scenario) or --fault-kill FRAC (a random scenario killing
/// that fraction of the fabric, drawn with --fault-seed N per fabric).
struct FaultFlags {
  std::string file;
  double kill = 0.0;
  std::uint64_t seed = 42;
  fault::FaultModel from_file;  // the --faults scenario, read by resolve()

  /// Takes the parser's current flag if it is one of the three.
  bool parse(Parser& cli) {
    if (cli.flag() == "--faults") {
      file = cli.value();
    } else if (cli.flag() == "--fault-kill") {
      kill = cli.double_value(0.0, 0.95);
    } else if (cli.flag() == "--fault-seed") {
      seed = static_cast<std::uint64_t>(
          cli.int_value(0, std::numeric_limits<std::int64_t>::max()));
    } else {
      return false;
    }
    return true;
  }

  /// After the flag walk: refuses --faults with --fault-kill, then reads
  /// the --faults file, so a bad one is a command-line error before any
  /// work starts.
  void resolve(const Parser& cli) {
    if (!file.empty() && kill > 0.0) {
      cli.bad_arg("--faults and --fault-kill are mutually exclusive");
    }
    if (!file.empty()) from_file = load_faults(file);
  }

  bool any() const { return !file.empty() || kill > 0.0; }

  /// The scenario for the fabric `config`: the file's, a --fault-kill draw
  /// for this config, or no fault.
  fault::FaultModel scenario(const fabric::FabricConfig& config) const {
    if (!file.empty()) return from_file;
    if (kill > 0.0) {
      return fault::FaultModel::random_scenario(config, kill, seed);
    }
    return {};
  }
};

}  // namespace mocha::cli
