// qsyn_perfbench: runs one benchmark workload and prints its result as one
// JSON line (the last line of standard output):
//
//   qsyn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --scratch <dir>
//
// Workloads: table2_n3, outofcore_n5, synth_queries, serve_automata (see
// perfbench/README.md). `--scratch` is a directory the run may write into
// (catalogs, spill files, the trace); perfbench/run.py builds this program,
// runs it, and completes the record.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "qsyn_perfbench: %s\n"
               "usage: qsyn_perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> --scratch <dir>\n",
               message.c_str());
  std::exit(2);
}

void print_json(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 && report.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const perfbench::Metric& m : report.metrics) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "scratch"}) {
    if (args.count(required) == 0) usage(std::string("missing --") + required);
  }

  const std::map<std::string, std::function<Report(const RunOptions&)>>
      workloads = {{"table2_n3", perfbench::run_table2_n3},
                   {"outofcore_n5", perfbench::run_outofcore_n5},
                   {"synth_queries", perfbench::run_synth_queries},
                   {"serve_automata", perfbench::run_serve_automata}};
  const auto workload = workloads.find(args["workload"]);
  if (workload == workloads.end()) usage("unknown workload " + args["workload"]);

  RunOptions options;
  try {
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
    options.trace = std::stoi(args["trace"]) != 0;
  } catch (const std::exception&) {
    usage("malformed number");
  }
  if (options.seconds <= 0) usage("bad value");
  options.scratch_dir = args["scratch"];
  std::filesystem::create_directories(options.scratch_dir);

  try {
    const Report report = workload->second(options);
    for (const std::string& failure : report.failures) {
      std::fprintf(stderr, "qsyn_perfbench: check failed: %s\n", failure.c_str());
    }
    print_json(report);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "qsyn_perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
