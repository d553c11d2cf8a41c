// dcat_perfbench: runs one benchmark workload and prints every metric by
// name with its unit; the last stdout line is the JSON result. Exits 1 when
// any correctness gate fails, 2 on a usage error.
//
//   dcat_perfbench --workload=line-mix|ctl-replay|churn-fleet --seed=N
//                  --seconds=S --trace=0|1 [--pins=FILE] [--spans=FILE]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench/bench.h"

namespace {

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "dcat_perfbench: %s\nusage: dcat_perfbench --workload=line-mix|ctl-replay|"
               "churn-fleet --seed=N --seconds=S --trace=0|1 [--pins=FILE] [--spans=FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    uint64_t number = 0;
    if (const char* v = value("--workload=")) {
      options.workload = v;
    } else if (const char* v = value("--seed=")) {
      if (!ParseU64(v, &options.seed)) {
        return Usage("--seed: expected a non-negative integer");
      }
    } else if (const char* v = value("--seconds=")) {
      if (!ParseU64(v, &number) || number == 0 || number > 3600) {
        return Usage("--seconds: expected an integer in 1..3600");
      }
      options.seconds = static_cast<double>(number);
    } else if (const char* v = value("--trace=")) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage("--trace: expected 0 or 1");
      }
      options.trace = std::strcmp(v, "1") == 0;
    } else if (const char* v = value("--pins=")) {
      options.pins_path = v;
    } else if (const char* v = value("--spans=")) {
      options.spans_path = v;
    } else if (arg == "--digest-only") {
      options.digest_only = true;
    } else {
      return Usage(("unknown argument '" + arg + "'").c_str());
    }
  }

  perfbench::PinTable pins;
  if (!options.pins_path.empty()) {
    std::ifstream in(options.pins_path);
    if (!in) {
      return Usage(("cannot read pins file " + options.pins_path).c_str());
    }
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    if (!perfbench::ParsePins(text.str(), &pins, &error)) {
      return Usage((options.pins_path + ": " + error).c_str());
    }
  }

  perfbench::RunReport report;
  if (options.workload == "line-mix") {
    report = perfbench::RunLineMix(options, pins);
  } else if (options.workload == "ctl-replay") {
    report = perfbench::RunCtlReplay(options, pins);
  } else if (options.workload == "churn-fleet") {
    report = perfbench::RunChurnFleet(options, pins);
  } else {
    return Usage("--workload: expected line-mix, ctl-replay or churn-fleet");
  }

  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [key, value] : report.notes) {
    std::printf("note %s = %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& finding : report.findings) {
    std::printf("FINDING %s\n", finding.c_str());
  }
  for (const std::string& problem : report.problems) {
    std::printf("FAIL %s\n", problem.c_str());
  }
  std::printf("digest %s\n", report.digest.c_str());
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + JsonEscape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
