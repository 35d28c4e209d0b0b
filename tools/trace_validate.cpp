// trace_validate — structural validator for Chrome trace-event JSON.
//
//   trace_validate FILE [--critpath REPORT]
//
// Exits 0 iff FILE parses as a trace document whose simulated-time lanes
// (pid 1) hold monotone, non-overlapping complete events, and whose flow
// events (ph "s"/"f", emitted by mocha_sim --trace-flows) pair up
// by id with both endpoints anchored inside an existing complete event on
// the same lane. With --critpath, additionally cross-checks a
// mocha.critpath.v1 report against the trace: every executed task on a
// group's critical chain must appear as a complete event carrying that
// {g, task} args pair. Paired with the trace_smoke / critpath_smoke ctest
// entries.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/json_parse.hpp"

namespace {

using mocha::util::JsonValue;

bool read_file(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

struct Span {
  double ts, dur;
};

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  const char* report_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--critpath") {
      if (i + 1 >= argc || report_path != nullptr) {
        std::cerr << "usage: trace_validate FILE [--critpath REPORT]\n";
        return 2;
      }
      report_path = argv[++i];
    } else if (trace_path == nullptr) {
      trace_path = argv[i];
    } else {
      std::cerr << "usage: trace_validate FILE [--critpath REPORT]\n";
      return 2;
    }
  }
  if (trace_path == nullptr) {
    std::cerr << "usage: trace_validate FILE [--critpath REPORT]\n";
    return 2;
  }
  std::string text;
  if (!read_file(trace_path, &text)) {
    std::cerr << "cannot open " << trace_path << "\n";
    return 1;
  }

  try {
    const JsonValue doc = mocha::util::parse_json(text);
    const JsonValue& events = doc.at("traceEvents");
    if (!events.is_array()) {
      std::cerr << "traceEvents is not an array\n";
      return 1;
    }

    // Per (pid, tid) complete-event spans; sim lanes (pid 1) additionally
    // checked for overlap. Args-stamped events keyed by (g, task) for the
    // critpath cross-check.
    std::map<std::pair<int, int>, std::vector<Span>> lanes;
    std::set<std::pair<std::int64_t, std::int64_t>> group_tasks;
    struct FlowEnd {
      double ts = 0;
      int pid = 0, tid = 0;
      bool seen = false;
    };
    std::map<double, std::pair<FlowEnd, FlowEnd>> flows;  // id -> (s, f)
    std::size_t complete = 0, flow_events = 0;
    std::map<int, std::vector<Span>> sim_lanes;
    for (const JsonValue& e : events.array) {
      const std::string& ph = e.at("ph").string;
      if (ph == "s" || ph == "f") {
        ++flow_events;
        e.at("name");
        e.at("cat");
        FlowEnd end;
        end.ts = e.at("ts").number;
        end.pid = static_cast<int>(e.at("pid").number);
        end.tid = static_cast<int>(e.at("tid").number);
        end.seen = true;
        auto& pair = flows[e.at("id").number];
        FlowEnd& slot = ph == "s" ? pair.first : pair.second;
        if (slot.seen) {
          std::cerr << "duplicate flow " << ph << " for id "
                    << e.at("id").number << "\n";
          return 1;
        }
        if (ph == "f" && (e.find("bp") == nullptr ||
                          e.at("bp").string != "e")) {
          std::cerr << "flow finish without bp:e for id " << e.at("id").number
                    << "\n";
          return 1;
        }
        slot = end;
        continue;
      }
      if (ph != "X") continue;
      ++complete;
      e.at("name");
      e.at("cat");
      const double ts = e.at("ts").number;
      const double dur = e.at("dur").number;
      if (ts < 0 || dur < 0) {
        std::cerr << "negative ts/dur on event '" << e.at("name").string
                  << "'\n";
        return 1;
      }
      const int pid = static_cast<int>(e.at("pid").number);
      const int tid = static_cast<int>(e.at("tid").number);
      lanes[{pid, tid}].push_back({ts, dur});
      if (pid == 1) sim_lanes[tid].push_back({ts, dur});
      if (const JsonValue* args = e.find("args")) {
        const JsonValue* g = args->find("g");
        const JsonValue* task = args->find("task");
        if (g != nullptr && task != nullptr) {
          group_tasks.emplace(static_cast<std::int64_t>(g->number),
                              static_cast<std::int64_t>(task->number));
        }
      }
    }
    if (complete == 0 || sim_lanes.empty()) {
      std::cerr << "no simulated-time events — trace is empty\n";
      return 1;
    }
    for (auto& [tid, spans] : sim_lanes) {
      std::sort(spans.begin(), spans.end(),
                [](const Span& a, const Span& b) { return a.ts < b.ts; });
      for (std::size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].ts < spans[i - 1].ts + spans[i - 1].dur) {
          std::cerr << "overlapping events on sim lane tid " << tid
                    << " near ts " << spans[i].ts << "\n";
          return 1;
        }
      }
    }

    // Every flow must have both endpoints, start before finish, and each
    // endpoint must land inside some complete event on its lane — a flow
    // pointing at empty timeline means the emitter and the X events
    // disagree about where tasks ran.
    for (auto& [lane, spans] : lanes) {
      (void)lane;
      std::sort(spans.begin(), spans.end(),
                [](const Span& a, const Span& b) { return a.ts < b.ts; });
    }
    auto anchored = [&](const FlowEnd& end) {
      const auto it = lanes.find({end.pid, end.tid});
      if (it == lanes.end()) return false;
      const std::vector<Span>& spans = it->second;
      // First span starting after end.ts; the one before (if any) must
      // cover it. Flow endpoints sit at task boundaries, so containment is
      // inclusive on both ends.
      auto up = std::upper_bound(
          spans.begin(), spans.end(), end.ts,
          [](double ts, const Span& s) { return ts < s.ts; });
      while (up != spans.begin()) {
        --up;
        if (end.ts <= up->ts + up->dur) return end.ts >= up->ts;
      }
      return false;
    };
    for (const auto& [id, pair] : flows) {
      const auto& [s, f] = pair;
      if (!s.seen || !f.seen) {
        std::cerr << "unpaired flow id " << id << " (" << (s.seen ? "s" : "")
                  << (f.seen ? "f" : "") << " only)\n";
        return 1;
      }
      if (f.ts < s.ts) {
        std::cerr << "flow id " << id << " finishes at " << f.ts
                  << " before it starts at " << s.ts << "\n";
        return 1;
      }
      if (!anchored(s) || !anchored(f)) {
        std::cerr << "flow id " << id
                  << " endpoint not inside any complete event\n";
        return 1;
      }
    }

    std::size_t checked_steps = 0;
    if (report_path != nullptr) {
      std::string report_text;
      if (!read_file(report_path, &report_text)) {
        std::cerr << "cannot open " << report_path << "\n";
        return 1;
      }
      const JsonValue report = mocha::util::parse_json(report_text);
      const JsonValue* schema = report.find("schema");
      if (schema == nullptr || schema->string != "mocha.critpath.v1") {
        std::cerr << report_path << " is not a mocha.critpath.v1 report\n";
        return 1;
      }
      for (const JsonValue& group : report.at("groups").array) {
        const std::int64_t gi =
            static_cast<std::int64_t>(group.at("group").number);
        for (const JsonValue& step : group.at("path").array) {
          // Zero-duration steps (barriers) are chain glue the tracer
          // deliberately omits; every step that took time must be in the
          // trace under this group's args stamp.
          if (step.at("finish").number <= step.at("start").number) continue;
          const std::int64_t task =
              static_cast<std::int64_t>(step.at("task").number);
          if (group_tasks.count({gi, task}) == 0) {
            std::cerr << "critpath step task " << task << " of group " << gi
                      << " missing from trace\n";
            return 1;
          }
          ++checked_steps;
        }
      }
      if (checked_steps == 0) {
        std::cerr << "critpath report has no timed steps to cross-check\n";
        return 1;
      }
    }

    std::cout << trace_path << ": " << complete << " events, "
              << sim_lanes.size() << " sim lanes, all monotone";
    if (flow_events > 0) {
      std::cout << ", " << flows.size() << " flows anchored";
    }
    if (report_path != nullptr) {
      std::cout << ", " << checked_steps << " critpath steps matched";
    }
    std::cout << "\n";
  } catch (const std::exception& e) {
    std::cerr << "invalid trace document: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
