// perfbench — the repository benchmark. Runs one named workload for a fixed
// time and prints a report ending in a one-line JSON result:
//
//   perfbench --workload <mobilenet224|small-capture|serve-tower|train-cnn>
//             --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics (see README.md for which end-to-end metric each one
// should move). Exits non-zero, without a result line, on bad arguments or
// when the workload throws.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "backends/native/native_backend.h"
#include "core/engine.h"
#include "harness.h"

namespace {

bool parseArgs(int argc, char** argv, perfbench::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return false;
      }
      a.trace = val[0] == '1';
    } else if (key == "--git-sha") {
      a.gitSha = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--git-sha <sha>]\n");
    return 2;
  }
  using RunFn = void (*)(const perfbench::Args&, perfbench::Report&,
                         perfbench::MachineWatch&);
  RunFn run = nullptr;
  if (args.workload == "mobilenet224") run = perfbench::runMobilenet224;
  if (args.workload == "small-capture") run = perfbench::runSmallCapture;
  if (args.workload == "serve-tower") run = perfbench::runServeTower;
  if (args.workload == "train-cnn") run = perfbench::runTrainCnn;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  tfjs::backends::native::registerBackend();
  perfbench::registerRefBackend();
  tfjs::setBackend("native");

  perfbench::MachineWatch machine;
  perfbench::Report report(args.trace);
  try {
    run(args, report, machine);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  machine.sampleThreads();
  {
    perfbench::Json d;
    d["peak_threads"] = machine.peakThreads();
    d["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
    report.check("threads_within_nproc",
                 machine.peakThreads() <=
                     static_cast<int>(std::thread::hardware_concurrency()),
                 d);
  }
  report.emit(args, machine);
  return 0;
}
