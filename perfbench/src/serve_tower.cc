// serve-tower — a 33-layer, 32-wide Dense tower behind
// serving::InferenceServer (maxBatch 8), driven by one client thread. The
// run alternates two phases in fixed slices:
//  * closed loop: blocking infer with a fixed number of requests
//    outstanding, the saturation throughput;
//  * open loop: tryInfer at one fixed offered rate, low enough that nothing
//    is shed, each request timed from the moment it was due.
// Kernels are tiny; this loads the serving queue, batching and per-op
// overhead.
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "harness.h"
#include "layers/core_layers.h"
#include "ops/ops.h"
#include "serving/server.h"

namespace perfbench {
namespace {

using tfjs::Shape;
using tfjs::serving::InferenceResult;
using tfjs::serving::InferenceServer;

constexpr int kDepth = 32;         // relu layers before the softmax head
constexpr int kWidth = 32;
constexpr int kClasses = 10;
constexpr int kInputs = 256;       // seeded request bodies, cycled
constexpr int kSetups = 60;
constexpr int kWindow = 64;        // closed-loop requests outstanding
constexpr double kOfferedRps = 4000;
constexpr double kSliceS = 0.25;   // one phase slice
constexpr std::uint64_t kKeepEvery = 1009;  // replies kept for the direct
constexpr std::size_t kMaxKept = 256;       // check against predict
constexpr double kRefTol = 1e-6;

std::unique_ptr<tfjs::layers::Sequential> buildTower() {
  auto m = std::make_unique<tfjs::layers::Sequential>("tower");
  for (int i = 0; i < kDepth; ++i) {
    tfjs::layers::DenseOptions d;
    d.units = kWidth;
    d.activation = "relu";
    d.name = "fc" + std::to_string(i);
    m->add(std::make_shared<tfjs::layers::Dense>(d));
  }
  tfjs::layers::DenseOptions head;
  head.units = kClasses;
  head.activation = "softmax";
  head.name = "head";
  m->add(std::make_shared<tfjs::layers::Dense>(head));
  return m;
}

tfjs::serving::ServerOptions serverOptions() {
  tfjs::serving::ServerOptions o;
  o.backend = "native";
  o.maxBatch = 8;
  return o;
}

struct Served {
  std::unique_ptr<InferenceServer> server;
  std::shared_ptr<tfjs::serving::Session> session;
  void dispose() {
    server->stop();
    server->model().dispose();
  }
};

struct Kept {
  std::uint64_t request;
  std::vector<float> values;
};

}  // namespace

void runServeTower(const Args& args, Report& report, MachineWatch& machine) {
  Spans spans(args.trace);
  const Shape example{kWidth};
  std::vector<std::vector<float>> inputs(kInputs);
  {
    std::mt19937_64 rng(args.seed);
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    for (auto& v : inputs) {
      v.resize(kWidth);
      for (float& x : v) x = dist(rng);
    }
  }

  // Setup: build the tower, start the server, get the first reply. The
  // first set-up gives the server that is driven; the others are spread
  // over the run, between slices.
  std::vector<double> setupS;
  auto setup = [&] {
    const auto t0 = Clock::now();
    Served s;
    s.server = std::make_unique<InferenceServer>(buildTower(), serverOptions());
    s.session = s.server->createSession("client");
    s.session->inferSync(inputs[0], example);
    setupS.push_back(msSince(t0) / 1000.0);
    return s;
  };
  Served served = setup();
  InferenceServer& server = *served.server;
  tfjs::serving::Session& session = *served.session;
  machine.sampleThreads();

  std::vector<double> satRps, latencyMs, sliceTailMs, lateMs, queueMs,
      computeMs;
  std::vector<Kept> kept;
  std::uint64_t satBatches = 0, satRequests = 0, openBatches = 0,
                openRequests = 0;
  std::uint64_t next = 0;  // request counter, picks the input
  // Open-loop arrivals are a seeded Poisson process: exponential gaps with
  // mean 1/kOfferedRps. A fixed period would phase-lock with the server's
  // batching linger and make the latency flip between two modes.
  std::mt19937_64 arrivals(args.seed ^ 0x9e3779b97f4a7c15ULL);
  std::exponential_distribution<double> gapS(kOfferedRps);
  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gapS(arrivals)));
  };
  auto inputOf = [](std::uint64_t request) { return request % kInputs; };
  // A request the server fails counts as a failed operation.
  auto settle = [&](std::future<InferenceResult>& f)
      -> std::optional<InferenceResult> {
    try {
      return f.get();
    } catch (const std::exception&) {
      report.op(false);
      return std::nullopt;
    }
  };
  auto reply = [&](InferenceResult r, std::uint64_t request) {
    report.op(softmaxRowsOk(r.values, kClasses));
    if (kept.size() < kMaxKept && request % kKeepEvery == 0) {
      kept.push_back({request, std::move(r.values)});
    }
  };

  const std::size_t tensorsBefore = tfjs::memory().numTensors;
  const auto c0 = Counters::now();
  const int slices = std::max(2, 2 * static_cast<int>(args.seconds /
                                                      (2 * kSliceS)));
  Spreader extraSetups(args.seconds, kSetups - 1);
  Counters setupCounts;  // kept out of the per-request counters
  for (int slice = 0; slice < slices; ++slice) {
    while (extraSetups.due()) {
      const Counters s0 = Counters::now();
      setup().dispose();
      setupCounts = setupCounts + (Counters::now() - s0);
    }
    const auto before = server.stats();
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration<double>(kSliceS);
    if (slice % 2 == 0) {
      // Closed loop: keep kWindow blocking requests outstanding.
      std::deque<std::pair<std::future<InferenceResult>, std::uint64_t>> open;
      std::uint64_t done = 0;
      while (Clock::now() < end) {
        open.emplace_back(session.infer(inputs[inputOf(next)], example), next);
        ++next;
        if (open.size() >= kWindow) {
          if (auto r = settle(open.front().first)) {
            reply(std::move(*r), open.front().second);
          }
          open.pop_front();
          ++done;
        }
      }
      for (; !open.empty(); open.pop_front(), ++done) {
        if (auto r = settle(open.front().first)) {
          reply(std::move(*r), open.front().second);
        }
      }
      satRps.push_back(static_cast<double>(done) /
                       (msSince(t0) / 1000.0));
      const auto after = server.stats();
      satBatches += after.batches - before.batches;
      satRequests += done;
    } else {
      // Open loop at the offered rate, each request timed from its due time.
      struct Pending {
        std::future<InferenceResult> f;
        std::uint64_t request;
        double lateMs;
      };
      std::vector<Pending> pending;
      for (auto due = t0; due < end; due += gap()) {
        std::this_thread::sleep_until(due);
        const std::uint64_t request = next++;
        const double late =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        auto f = session.tryInfer(inputs[inputOf(request)], example);
        if (!f) {
          report.op(false);  // shed
          continue;
        }
        pending.push_back({std::move(*f), request, late});
      }
      std::vector<double> slice;
      for (auto& p : pending) {
        std::optional<InferenceResult> r = settle(p.f);
        if (!r) continue;
        slice.push_back(p.lateMs + r->totalMs);
        lateMs.push_back(p.lateMs);
        queueMs.push_back(r->queueMs);
        computeMs.push_back(r->totalMs - r->queueMs);
        reply(std::move(*r), p.request);
      }
      sliceTailMs.push_back(quantile(slice, tailQuantileLevel(slice.size())));
      latencyMs.insert(latencyMs.end(), slice.begin(), slice.end());
      const auto after = server.stats();
      openBatches += after.batches - before.batches;
      openRequests += pending.size();
    }
    machine.sampleThreads();
  }
  const Counters perRun = Counters::now() - c0 - setupCounts;
  server.stop();
  const auto stats = server.stats();

  // Output checks, outside the clock: the server is stopped, so the model
  // can be driven directly from this thread.
  report.check("no_failed_batches", stats.failed == 0 && stats.rejected == 0);
  report.check("no_tensor_leak", tfjs::memory().numTensors == tensorsBefore);
  tfjs::layers::Sequential& model = server.model();
  auto direct = [&](std::uint64_t request) {
    tfjs::Tensor x = tfjs::ops::tensor(inputs[inputOf(request)], {1, kWidth});
    tfjs::Tensor y =
        spans.time("layers.predict", [&] { return model.predict(x); });
    std::vector<float> out =
        spans.time("engine.readback", [&] { return y.dataSync(); });
    x.dispose();
    y.dispose();
    return out;
  };
  bool repliesMatch = !kept.empty();
  for (const Kept& k : kept) {
    repliesMatch &= bitwiseEqual(k.values, direct(k.request));
  }
  {
    Json d;
    d["replies_checked"] = kept.size();
    report.check("replies_match_direct_predict", repliesMatch, d);
  }
  const Shape row{1, kWidth};
  const std::vector<float> first = direct(0);
  checkAgainstRef(report, "direct_matches_ref", first,
                  predictOnRef(tfjs::io::serializeModel(model, row), inputs[0],
                               row),
                  kClasses, kRefTol);
  checkOneThread(report, "direct_one_thread_bitwise", [&] { return direct(0); },
                 first);
  // Traced runs profile direct batch-1 predicts of the served model: the
  // kernels of one request without the server's batching around them.
  KernelTable kernels;
  for (std::uint64_t i = 0; args.trace && i < kInputs; ++i) {
    kernels.profile([&] { direct(i); });
    kernels.endRound();
  }
  model.dispose();

  // The tail is taken per open-loop slice (about 1000 requests, so p99 has
  // ten beyond it) and the median slice kept: one multi-millisecond stall
  // of the machine moves one slice, not the run's figure. It is reported,
  // not gated: under steal it still moved 1.9-9.4 ms between runs.
  report.endToEnd("setup_s", median(setupS), "s");
  report.endToEnd("latency_ms_p50", median(latencyMs), "ms");
  report.endToEnd("throughput_per_s", median(satRps), "1/s");
  report.endToEnd("peak_rss_mb", peakRssMb(), "MB");
  Json& timing = report.detail()["end_to_end"];
  timing["request_ms_p50"] = median(latencyMs);
  timing["saturation_rps"] = median(satRps);
  timing["request_ms_p99"] = median(sliceTailMs);
  timing["offered_rps"] = kOfferedRps;
  if (!args.trace) return;

  reportPerOp(report, perRun, static_cast<double>(satRequests + openRequests));
  report.metric("layers.predict_ms", spans.medianMs("layers.predict"), "ms");
  report.metric("engine.readback_ms", spans.medianMs("engine.readback"), "ms");
  kernels.report(report);
  report.metric("serving.queue_ms_p50", median(queueMs), "ms");
  report.metric("serving.compute_ms_p50", median(computeMs), "ms");
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  report.metric("serving.mean_batch_open", ratio(openRequests, openBatches),
                "count");
  report.metric("serving.mean_batch_sat", ratio(satRequests, satBatches),
                "count");
  report.metric("serving.batches",
                static_cast<double>(satBatches + openBatches), "count");
  report.metric("loadgen.late_ms_p99",
                quantile(lateMs, tailQuantileLevel(lateMs.size())), "ms");
}

}  // namespace perfbench
