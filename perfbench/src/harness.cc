#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "backends/common/ref_backend.h"
#include "core/buffer_pool.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "ops/ops.h"

namespace perfbench {

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tailQuantileLevel(std::size_t n) {
  if (n <= 10) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

// ------------------------------------------------------------ machine

MachineWatch::MachineWatch() : start_(readCpuTimes()) { sampleThreads(); }

MachineWatch::CpuTimes MachineWatch::readCpuTimes() {
  // First line of /proc/stat: cpu user nice system idle iowait irq softirq
  // steal guest guest_nice (jiffies). guest time is already in user.
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (f >> cpu) {
    for (auto& x : v) f >> x;
  }
  for (int i = 0; i < 8; ++i) t.total += v[i];
  t.steal = v[7];
  t.busy = t.total - v[3] - v[4];
  return t;
}

void MachineWatch::sampleThreads() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      peakThreads_ = std::max(peakThreads_, std::atoi(line.c_str() + 8));
      return;
    }
  }
}

namespace {

std::string cpuinfoField(const std::string& key) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "";
}

bool hasFlag(const std::string& flags, const char* flag) {
  std::istringstream in(flags);
  std::string f;
  while (in >> f) {
    if (f == flag) return true;
  }
  return false;
}

}  // namespace

Json MachineWatch::record(const Args& args) const {
  const CpuTimes end = readCpuTimes();
  const double busy = static_cast<double>(end.busy - start_.busy);
  const std::string flags = cpuinfoField("flags");
  std::string isa = "scalar";
  if (hasFlag(flags, "avx2")) isa = "avx2";
  if (hasFlag(flags, "avx512_vnni")) isa = "avx512-vnni";
  Json m;
  m["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  m["isa"] = isa;
  m["cpu_model"] = cpuinfoField("model name");
  m["engine_threads"] = tfjs::getNumThreads();
  m["peak_threads"] = peakThreads_;
  m["steal_share"] =
      busy > 0 ? static_cast<double>(end.steal - start_.steal) / busy : 0.0;
  m["git_sha"] = args.gitSha;
  return m;
}

// ------------------------------------------------------------- report

void Report::check(const std::string& name, bool ok, Json detail) {
  op(ok);
  if (!ok) ++checksFailed_;
  Json c;
  c["name"] = name;
  c["ok"] = ok;
  if (!detail.isNull()) c["detail"] = std::move(detail);
  checks_.asArray().push_back(std::move(c));
}

void Report::endToEnd(const std::string& name, double value,
                      const std::string& unit) {
  detail_["end_to_end"][name] = value;
  if (!traced_) metric(name, value, unit);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  Json m;
  m["value"] = std::isfinite(value) ? value : -1.0;
  m["unit"] = unit;
  metrics_[name] = std::move(m);
}

void Report::emit(const Args& args, const MachineWatch& machine) const {
  Json full;
  full["workload"] = args.workload;
  full["seed"] = static_cast<double>(args.seed);
  full["seconds"] = args.seconds;
  full["trace"] = args.trace;
  full["machine"] = machine.record(args);
  full["checks"] = checks_;
  full["detail"] = detail_;
  full["metrics"] = metrics_;
  std::cout << full.dump(2) << "\n";

  Json last;
  last["correct"] = checksFailed_ == 0;
  last["attempted"] = static_cast<double>(attempted_);
  last["failed"] = static_cast<double>(failed_);
  last["metrics"] = metrics_;
  std::cout << last.dump() << std::endl;
}

// -------------------------------------------------------------- spans

double Spans::medianMs(const std::string& name) const {
  auto it = ms_.find(name);
  return it == ms_.end() ? 0 : median(it->second);
}

// ----------------------------------------------------------- counters

Counters Counters::now() {
  auto& reg = tfjs::metrics::Registry::get();
  const auto pool = tfjs::core::BufferPool::get().stats();
  Counters c;
  c.kernels = reg.counter("engine.kernels_dispatched").value();
  c.poolAcquires = pool.hits + pool.misses + pool.bypasses;
  c.poolMisses = pool.misses + pool.bypasses;
  c.parallelFors = reg.counter("threadpool.parallel_fors").value();
  c.chunks = reg.counter("threadpool.chunks").value();
  c.arenaMisses = reg.counter("pool.arena_misses").value();
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.kernels = kernels - o.kernels;
  d.poolAcquires = poolAcquires - o.poolAcquires;
  d.poolMisses = poolMisses - o.poolMisses;
  d.parallelFors = parallelFors - o.parallelFors;
  d.chunks = chunks - o.chunks;
  d.arenaMisses = arenaMisses - o.arenaMisses;
  return d;
}

Counters Counters::operator+(const Counters& o) const {
  Counters s;
  s.kernels = kernels + o.kernels;
  s.poolAcquires = poolAcquires + o.poolAcquires;
  s.poolMisses = poolMisses + o.poolMisses;
  s.parallelFors = parallelFors + o.parallelFors;
  s.chunks = chunks + o.chunks;
  s.arenaMisses = arenaMisses + o.arenaMisses;
  return s;
}

void reportPerOp(Report& r, const Counters& d, double ops) {
  auto per = [&](std::uint64_t v) { return static_cast<double>(v) / ops; };
  r.metric("engine.kernels_per_op", per(d.kernels), "count");
  r.metric("pool.acquires_per_op", per(d.poolAcquires), "count");
  r.metric("pool.misses_per_op", per(d.poolMisses), "count");
  r.metric("threadpool.parallel_fors_per_op", per(d.parallelFors), "count");
  r.metric("threadpool.chunks_per_op", per(d.chunks), "count");
}

// --------------------------------------------------------------- misc

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int argMax(const std::vector<float>& v, std::size_t begin, std::size_t n) {
  std::size_t best = begin;
  for (std::size_t i = begin; i < begin + n; ++i) {
    if (v[i] > v[best]) best = i;
  }
  return static_cast<int>(best - begin);
}

bool softmaxRowsOk(const std::vector<float>& v, std::size_t cols) {
  if (cols == 0 || v.size() % cols != 0 || v.empty()) return false;
  for (std::size_t r = 0; r < v.size(); r += cols) {
    double sum = 0;
    for (std::size_t i = r; i < r + cols; ++i) {
      if (!std::isfinite(v[i]) || v[i] < 0) return false;
      sum += v[i];
    }
    if (std::fabs(sum - 1.0) > 1e-4) return false;
  }
  return true;
}

void registerRefBackend() {
  tfjs::Engine::get().registerBackend(
      "ref", [] { return std::make_unique<tfjs::backends::RefBackend>(); });
}

std::vector<float> predictOnRef(const tfjs::io::ModelArtifacts& bundle,
                                const std::vector<float>& input,
                                const tfjs::Shape& shape) {
  const std::string previous = tfjs::getBackendName();
  tfjs::setBackend("ref");
  auto model = tfjs::io::deserializeModel(bundle);
  tfjs::Tensor x = tfjs::ops::tensor(input, shape);
  tfjs::Tensor y = model->predict(x);
  std::vector<float> out = y.dataSync();
  for (const tfjs::Tensor& t : {x, y}) t.dispose();
  model->dispose();
  tfjs::setBackend(previous);
  return out;
}

namespace {

/// Max |a - b| over two equally sized vectors (infinity on size mismatch).
double maxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return INFINITY;
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return d;
}

}  // namespace

void checkAgainstRef(Report& r, const std::string& name,
                     const std::vector<float>& native,
                     const std::vector<float>& ref, std::size_t cols,
                     double tol) {
  const double diff = maxAbsDiff(native, ref);
  bool top1 = !native.empty() && native.size() == ref.size() &&
              native.size() % cols == 0;
  for (std::size_t row = 0; top1 && row < native.size(); row += cols) {
    top1 = argMax(native, row, cols) == argMax(ref, row, cols);
  }
  Json d;
  d["max_abs_diff"] = std::isfinite(diff) ? diff : -1.0;
  d["tolerance"] = tol;
  d["same_top1"] = top1;
  r.check(name, diff <= tol && top1, d);
}

void checkOneThread(Report& r, const std::string& name,
                    const std::function<std::vector<float>()>& fn,
                    const std::vector<float>& expected) {
  const int threads = tfjs::getNumThreads();
  tfjs::setNumThreads(1);
  const std::vector<float> serial = fn();
  tfjs::setNumThreads(threads);
  r.check(name, bitwiseEqual(serial, expected));
}

// ------------------------------------------------------- kernel table

void KernelTable::profile(const std::function<void()>& fn) {
  for (const auto& k : tfjs::profile(fn).kernels) {
    round_[k.name] += k.wallMs;
    totalMs_ += k.wallMs;
    if (k.threads > 1) parallelMs_ += k.wallMs;
  }
}

void KernelTable::endRound() {
  for (const auto& [name, ms] : round_) rounds_[name].push_back(ms);
  round_.clear();
}

double KernelTable::medianMs(const std::string& kernel) const {
  auto it = rounds_.find(kernel);
  return it == rounds_.end() ? 0 : median(it->second);
}

double KernelTable::parallelShare() const {
  return totalMs_ > 0 ? parallelMs_ / totalMs_ : 0;
}

void KernelTable::report(Report& r) const {
  r.metric("native.parallel_kernel_share", parallelShare(), "ratio");
  for (const char* k : {"fusedConv2d", "depthwiseConv2d", "quantizedConv2d",
                        "matMul", "quantizedMatMul", "transpose", "mean",
                        "add", "relu6"}) {
    r.metric(std::string("native.") + k + "_ms", medianMs(k), "ms");
  }
  Json t;
  for (const auto& [name, v] : rounds_) t[name] = median(v);
  r.detail()["kernel_ms_per_round"] = std::move(t);
}

}  // namespace perfbench
