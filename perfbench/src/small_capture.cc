// small-capture — MobileNet v1 alpha=0.125 at 32x32 with BatchNorm, batch 1,
// default threads. Eager predict alternates sample by sample with a
// graph::CapturedGraph replay of the same function. Kernels do little here:
// the time goes to dispatch and allocation (engine, buffer pool, graph
// passes and executor) and to thread-pool overhead on tiny ops.
#include <memory>

#include "graph/capture.h"
#include "graph/executor.h"
#include "harness.h"
#include "models/mobilenet.h"
#include "ops/ops.h"

namespace perfbench {
namespace {

using tfjs::Shape;
using tfjs::Tensor;

constexpr int kInputs = 8;
constexpr int kSetups = 60;
constexpr double kRefTol = 1e-6;

tfjs::models::MobileNetOptions modelOptions() {
  tfjs::models::MobileNetOptions o;
  o.alpha = 0.125f;
  o.inputSize = 32;
  o.numClasses = 10;
  o.withBatchNorm = true;
  o.seed = 7;
  return o;
}

struct Captured {
  std::unique_ptr<tfjs::layers::Sequential> model;
  tfjs::graph::CapturedGraph graph;
  void dispose() {
    graph.dispose();
    if (model) model->dispose();
  }
};

std::vector<float> readback(Tensor y, Spans& spans) {
  std::vector<float> out =
      spans.time("engine.readback", [&] { return y.dataSync(); });
  y.dispose();
  return out;
}

}  // namespace

void runSmallCapture(const Args& args, Report& report, MachineWatch& machine) {
  Spans spans(args.trace);
  const auto opts = modelOptions();
  const Shape inShape{1, opts.inputSize, opts.inputSize, 3};
  const std::size_t classes = static_cast<std::size_t>(opts.numClasses);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kInputs; ++i) {
    inputs.push_back(tfjs::ops::randomNormal(
        inShape, 0, 1, args.seed * kInputs + static_cast<std::uint64_t>(i)));
    inputs.back().keep();
  }

  // Setup: build the model, capture and compile its forward pass, and
  // produce the first captured result. The first set-up gives the model
  // that is timed; the others are spread over the run.
  std::vector<double> setupS;
  auto setup = [&] {
    const auto t0 = Clock::now();
    Captured s;
    s.model = tfjs::models::buildMobileNetV1(opts);
    s.model->predict(inputs[0]).dispose();  // builds the weights
    tfjs::graph::Graph g = spans.time("graph.capture", [&] {
      return tfjs::graph::capture(
          [&](const std::vector<Tensor>& ins) {
            return std::vector<Tensor>{s.model->predict(ins[0])};
          },
          {inputs[0]});
    });
    s.graph = spans.time("graph.compile", [&] {
      return tfjs::graph::CapturedGraph(std::move(g));
    });
    readback(s.graph.run({inputs[0]})[0], spans);
    setupS.push_back(msSince(t0) / 1000.0);
    return s;
  };
  Captured c = setup();
  machine.sampleThreads();

  // Timed rounds: eager then captured on the same input. Counters are read
  // around each path only in traced runs.
  const std::size_t tensorsBefore = tfjs::memory().numTensors;
  std::vector<double> eagerMs, capturedMs, roundMs;
  KernelTable kernels;
  Counters eagerCounts, capturedCounts;
  std::vector<float> firstEager;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  Spreader extraSetups(args.seconds, kSetups - 1);
  int rounds = 0;
  for (; Clock::now() < deadline; ++rounds) {
    if (extraSetups.due()) setup().dispose();
    const Tensor& x = inputs[static_cast<std::size_t>(rounds % kInputs)];
    auto eager = [&] {
      return readback(
          spans.time("layers.predict", [&] { return c.model->predict(x); }),
          spans);
    };
    auto captured = [&] { return readback(c.graph.run({x})[0], spans); };
    std::vector<float> ye, yc;
    if (args.trace && rounds % 2 == 1) {
      kernels.profile([&] { ye = eager(); });
      kernels.endRound();
      yc = captured();
    } else if (args.trace) {
      Counters k0 = Counters::now();
      auto t0 = Clock::now();
      ye = eager();
      eagerMs.push_back(msSince(t0));
      Counters k1 = Counters::now();
      t0 = Clock::now();
      yc = captured();
      capturedMs.push_back(msSince(t0));
      roundMs.push_back(eagerMs.back() + capturedMs.back());
      eagerCounts = eagerCounts + (k1 - k0);
      capturedCounts = capturedCounts + (Counters::now() - k1);
    } else {
      auto t0 = Clock::now();
      ye = eager();
      eagerMs.push_back(msSince(t0));
      t0 = Clock::now();
      yc = captured();
      capturedMs.push_back(msSince(t0));
      roundMs.push_back(eagerMs.back() + capturedMs.back());
    }
    report.op(softmaxRowsOk(ye, classes));
    report.op(softmaxRowsOk(yc, classes) && bitwiseEqual(yc, ye));
    if (rounds == 0) firstEager = ye;
    if (rounds % 256 == 0) machine.sampleThreads();
  }

  report.check("no_tensor_leak", tfjs::memory().numTensors == tensorsBefore);
  const std::vector<float> x0 = inputs[0].dataSync();
  checkAgainstRef(report, "eager_matches_ref", firstEager,
                  predictOnRef(tfjs::io::serializeModel(*c.model, inShape), x0,
                               inShape),
                  classes, kRefTol);
  Spans off(false);
  checkOneThread(report, "eager_one_thread_bitwise",
                 [&] { return readback(c.model->predict(inputs[0]), off); },
                 firstEager);
  checkOneThread(report, "captured_one_thread_bitwise",
                 [&] { return readback(c.graph.run({inputs[0]})[0], off); },
                 firstEager);

  const Json graphShape = [&] {
    Json g;
    int regions = 0;
    for (const auto& n : c.graph.optimized().nodes) {
      regions += n.op == tfjs::ops::OpId::kFusedRegion;
    }
    g["nodes_original"] = c.graph.original().nodes.size();
    g["nodes_optimized"] = c.graph.optimized().nodes.size();
    g["fused_regions"] = regions;
    return g;
  }();
  c.dispose();
  for (Tensor& t : inputs) t.dispose();

  report.endToEnd("setup_s", median(setupS), "s");
  report.endToEnd("latency_ms_p50", median(eagerMs), "ms");
  // Eager and captured inferences over the median round.
  report.endToEnd("throughput_per_s", 2000.0 / median(roundMs), "1/s");
  report.endToEnd("peak_rss_mb", peakRssMb(), "MB");
  Json& timing = report.detail()["end_to_end"];
  timing["eager_ms_p50"] = median(eagerMs);
  timing["captured_ms_p50"] = median(capturedMs);
  report.detail()["graph"] = graphShape;
  if (!args.trace) return;

  const double eagerRuns = static_cast<double>(eagerMs.size());
  report.metric("layers.predict_ms", spans.medianMs("layers.predict"), "ms");
  report.metric("engine.readback_ms", spans.medianMs("engine.readback"), "ms");
  reportPerOp(report, eagerCounts, eagerRuns);
  kernels.report(report);
  report.metric("graph.capture_ms", spans.medianMs("graph.capture"), "ms");
  report.metric("graph.compile_ms", spans.medianMs("graph.compile"), "ms");
  report.metric("graph.nodes_original",
                graphShape.at("nodes_original").asDouble(), "count");
  report.metric("graph.nodes_optimized",
                graphShape.at("nodes_optimized").asDouble(), "count");
  report.metric("graph.fused_regions",
                graphShape.at("fused_regions").asDouble(), "count");
  report.metric("graph.pool_allocs_per_run",
                static_cast<double>(capturedCounts.poolAcquires +
                                    capturedCounts.arenaMisses) /
                    eagerRuns,
                "count");
}

}  // namespace perfbench
