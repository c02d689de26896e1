// Drives one benchmark workload against a duplexd binary and prints the
// result; perfbench/run.py builds both and calls this. See run.py.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench_driver --workload query_zipf|ingest_daily|"
               "live_mixed --seed N --seconds S --trace 0|1\n"
               "                        --duplexd PATH --work-dir DIR "
               "--report FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--duplexd") {
      options.duplexd = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--report") {
      options.report = value;
    } else {
      return Usage();
    }
  }
  if ((options.workload != "query_zipf" &&
       options.workload != "ingest_daily" &&
       options.workload != "live_mixed") ||
      options.seconds <= 0 || options.duplexd.empty() ||
      options.work_dir.empty() || options.report.empty()) {
    return Usage();
  }

  const perfbench::Report report = perfbench::RunWorkload(options);
  std::ofstream(options.report) << perfbench::ReportJson(report, options);
  for (const auto& [name, m] : report.end_to_end) {
    std::cout << name << " " << m.value << " " << m.unit << " (" << m.kind
              << ", " << m.better << " is better; " << m.detail << ")\n";
  }
  if (options.trace) {
    for (const auto& [name, m] : report.layers) {
      std::cout << name << " " << m.value << " " << m.unit << "\n";
    }
  }
  for (const std::string& error : report.errors) {
    std::cerr << "FAILED: " << error << "\n";
  }
  if (report.invalid) {
    std::cerr << "INVALID: the open-loop generator ran late; see "
              << options.report << "\n";
  }
  std::cout << perfbench::ResultLine(report, options.trace) << std::endl;
  return report.correct() ? 0 : 1;
}
