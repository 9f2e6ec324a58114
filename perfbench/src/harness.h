// Shared pieces of the repository benchmark: arguments, clocks and order
// statistics, the run report (written through io::Json), the machine record,
// counter deltas read from the library's public counters, and the
// benchmark's own spans around calls into each layer.
//
// The benchmark measures the library from outside: it only calls public
// functions and reads public counters (metrics::Registry, BufferPool::stats,
// Engine::memory, InferenceServer::stats). Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/json.h"
#include "io/model_io.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using tfjs::io::Json;

/// Command line: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string gitSha = "unknown";
};

double msSince(Clock::time_point t0);

/// Spreads n extra samples evenly over a timed run of `seconds`: due()
/// turns true once at the middle of each n-th of the run. Set-up samples
/// are taken this way, so that a passing slow spell of the machine moves
/// only some of them.
class Spreader {
 public:
  Spreader(double seconds, int n)
      : start_(Clock::now()), stepS_(seconds / n), n_(n) {}
  bool due() {
    if (done_ >= n_ ||
        std::chrono::duration<double>(Clock::now() - start_).count() <
            (done_ + 0.5) * stepS_) {
      return false;
    }
    ++done_;
    return true;
  }

 private:
  Clock::time_point start_;
  double stepS_;
  int n_;
  int done_ = 0;
};

/// Nearest-rank order statistic of `v` at q in [0, 1] (v is copied).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// The highest percentile of n samples with at least ten samples beyond it,
/// capped at p99.
double tailQuantileLevel(std::size_t n);

/// Reads the machine facts that tell a noisy run apart: cpu count, ISA
/// flags, steal share over the run, peak process thread count.
class MachineWatch {
 public:
  MachineWatch();
  /// Samples the process thread count; call at points where every thread
  /// the workload uses is alive.
  void sampleThreads();
  int peakThreads() const { return peakThreads_; }
  Json record(const Args& args) const;

 private:
  struct CpuTimes {
    std::uint64_t busy = 0, total = 0, steal = 0;
  };
  static CpuTimes readCpuTimes();
  CpuTimes start_;
  int peakThreads_ = 0;
};

/// The run report. Each timed operation and each output check is one
/// attempted operation; a check that fails, or a request that is shed or
/// that the server fails, is a failed one.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}
  /// Records one operation and whether it succeeded.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records one output check: an operation whose failure also marks the
  /// run's outputs incorrect. `detail` is kept in the report.
  void check(const std::string& name, bool ok, Json detail = Json());
  /// An end-to-end metric: kept in the report's detail, and printed in the
  /// final line of an untraced run.
  void endToEnd(const std::string& name, double value,
                const std::string& unit);
  /// A per-layer metric, printed in the final line (traced runs only).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Free-form detail shown in the report, not in the final line; the
  /// "end_to_end" entry holds endToEnd() values and workload extras.
  Json& detail() { return detail_; }

  /// Prints the full report, then the final one-line result.
  void emit(const Args& args, const MachineWatch& machine) const;

 private:
  bool traced_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checksFailed_ = 0;
  Json checks_ = Json(tfjs::io::JsonArray{});
  Json metrics_ = Json(tfjs::io::JsonObject{});
  Json detail_ = Json(tfjs::io::JsonObject{});
};

/// The benchmark's own spans: wall time of calls into one layer's public
/// functions, by name. Only recorded in traced runs; untraced runs pay one
/// branch.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  template <typename Fn>
  decltype(auto) time(const std::string& name, Fn&& fn) {
    if (!on_) return fn();
    struct Stop {
      Spans* s;
      const std::string& n;
      Clock::time_point t0 = Clock::now();
      ~Stop() { s->ms_[n].push_back(msSince(t0)); }
    } stop{this, name};
    return fn();
  }
  double medianMs(const std::string& name) const;

 private:
  bool on_;
  std::map<std::string, std::vector<double>> ms_;
};

/// Deltas of the library's public counters across a stretch of work:
/// engine kernels, buffer-pool acquires/misses, thread-pool jobs/chunks.
struct Counters {
  std::uint64_t kernels = 0;
  std::uint64_t poolAcquires = 0;
  std::uint64_t poolMisses = 0;
  std::uint64_t parallelFors = 0;
  std::uint64_t chunks = 0;
  std::uint64_t arenaMisses = 0;
  static Counters now();
  Counters operator-(const Counters& o) const;
  Counters operator+(const Counters& o) const;
};
/// Reports the engine/pool/thread-pool counters of `d` per operation.
void reportPerOp(Report& r, const Counters& d, double ops);

/// Peak resident set of this process, MB.
double peakRssMb();

bool bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b);
int argMax(const std::vector<float>& v, std::size_t begin, std::size_t n);
/// Every row of `v` (rows of `cols`) finite and summing to 1 within 1e-4.
bool softmaxRowsOk(const std::vector<float>& v, std::size_t cols);

/// Registers the plainly compiled scalar reference backend as "ref".
void registerRefBackend();

/// Output of the model in `bundle` on `input`, computed on the reference
/// backend (the model is deserialized there, so it carries the same bits).
std::vector<float> predictOnRef(const tfjs::io::ModelArtifacts& bundle,
                                const std::vector<float>& input,
                                const tfjs::Shape& shape);
/// Checks native output rows against the reference: max |diff| <= tol and
/// the same top-1 class in every row of `cols` values.
void checkAgainstRef(Report& r, const std::string& name,
                     const std::vector<float>& native,
                     const std::vector<float>& ref, std::size_t cols,
                     double tol);
/// Checks that `fn` run at one thread gives the same bits as `expected`
/// (computed at the default thread count), then restores the thread count.
void checkOneThread(Report& r, const std::string& name,
                    const std::function<std::vector<float>()>& fn,
                    const std::vector<float>& expected);

/// Per-kernel wall time from the engine profiler, grouped in rounds: each
/// profiled call adds into the current round; endRound() closes it.
class KernelTable {
 public:
  /// Runs fn under tfjs::profile and adds its kernels into the round.
  void profile(const std::function<void()>& fn);
  void endRound();
  double medianMs(const std::string& kernel) const;
  /// Share of kernel time spent in kernels that ran on more than one thread.
  double parallelShare() const;
  /// Reports native.parallel_kernel_share and native.<kernel>_ms (median
  /// per round) for the kernels the README names, and every kernel's
  /// median in the report's detail.
  void report(Report& r) const;

 private:
  std::map<std::string, double> round_;
  std::map<std::string, std::vector<double>> rounds_;
  double parallelMs_ = 0, totalMs_ = 0;
};

void runMobilenet224(const Args& args, Report& report, MachineWatch& machine);
void runSmallCapture(const Args& args, Report& report, MachineWatch& machine);
void runServeTower(const Args& args, Report& report, MachineWatch& machine);
void runTrainCnn(const Args& args, Report& report, MachineWatch& machine);

}  // namespace perfbench
