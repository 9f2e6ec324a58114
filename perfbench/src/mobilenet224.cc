// mobilenet224 — MobileNet v1 1.0_224, batch 1, native backend, default
// thread count: the paper's Table 1 model. The f32 and int8 twins are loaded
// with io::deserializeModel from bundles serialized before the clock starts,
// then run through eager predict + dataSync, alternating sample by sample so
// that machine noise lands on both alike. Bound by kernels and threads:
// native conv, depthwise, int8 GEMM and the thread pool.
#include <memory>

#include "harness.h"
#include "models/mobilenet.h"
#include "ops/ops.h"

namespace perfbench {
namespace {

using tfjs::Shape;
using tfjs::Tensor;
using tfjs::layers::Sequential;

constexpr int kInputs = 4;  // seeded input images, cycled
constexpr int kSetups = 30;  // setup repeats; setup_s is their median
// Max |native - ref| on the output probabilities (README, "Output checks").
constexpr double kF32Tol = 1e-6;
constexpr double kInt8Tol = 1e-4;

struct Twins {
  std::unique_ptr<Sequential> f32, int8;
  void dispose() {
    if (f32) f32->dispose();
    if (int8) int8->dispose();
  }
};

std::vector<float> infer(Sequential& m, const Tensor& x, Spans& spans,
                         const std::string& path) {
  Tensor y = spans.time("layers.predict." + path, [&] { return m.predict(x); });
  std::vector<float> out =
      spans.time("engine.readback." + path, [&] { return y.dataSync(); });
  y.dispose();
  return out;
}

std::vector<std::vector<float>> hostWeights(const Sequential& m) {
  std::vector<std::vector<float>> w;
  for (const auto& v : m.weights()) w.push_back(v.value().dataSync());
  return w;
}

}  // namespace

void runMobilenet224(const Args& args, Report& report, MachineWatch& machine) {
  Spans spans(args.trace);
  const tfjs::models::MobileNetOptions opts;  // 1.0_224, 1000 classes
  const Shape inShape{1, opts.inputSize, opts.inputSize, 3};
  const std::size_t classes = static_cast<std::size_t>(opts.numClasses);

  // Before the clock: the bundles a user would fetch, and the inputs.
  tfjs::io::ModelArtifacts f32Bundle, int8Bundle;
  std::vector<std::vector<float>> sourceWeights;
  {
    auto source = tfjs::models::buildMobileNetV1(opts);
    source->build(inShape);
    f32Bundle = tfjs::io::serializeModel(*source, inShape);
    tfjs::io::SaveOptions q;
    q.quantization = tfjs::io::Quantization::kInt8;
    int8Bundle = tfjs::io::serializeModel(*source, inShape, q);
    sourceWeights = hostWeights(*source);
    source->dispose();
  }
  std::vector<Tensor> inputs;
  for (int i = 0; i < kInputs; ++i) {
    inputs.push_back(tfjs::ops::randomUniform(
        inShape, -1, 1, args.seed * kInputs + static_cast<std::uint64_t>(i)));
    inputs.back().keep();
  }

  // Setup: load both twins and produce their first results. The first set-up
  // gives the twins that are timed; the others are spread over the run.
  std::vector<double> setupS;
  auto setup = [&] {
    const auto t0 = Clock::now();
    Twins t;
    t.f32 = spans.time("io.deserialize_f32", [&] {
      return tfjs::io::deserializeModel(f32Bundle);
    });
    t.int8 = spans.time("io.deserialize_int8", [&] {
      return tfjs::io::deserializeModel(int8Bundle);
    });
    infer(*t.f32, inputs[0], spans, "f32");
    infer(*t.int8, inputs[0], spans, "int8");
    setupS.push_back(msSince(t0) / 1000.0);
    return t;
  };
  Twins twins = setup();
  machine.sampleThreads();

  // Timed rounds: one f32 and one int8 inference each. In a traced run
  // every other round runs under the profiler and gives the kernel table;
  // the latency figures come from the other rounds.
  const std::size_t tensorsBefore = tfjs::memory().numTensors;
  std::vector<double> f32Ms, int8Ms, roundMs;
  KernelTable kernels;
  std::vector<float> firstF32, firstInt8;
  const Counters c0 = Counters::now();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  Spreader extraSetups(args.seconds, kSetups - 1);
  Counters setupCounts;  // kept out of the per-inference counters
  int rounds = 0;
  for (; Clock::now() < deadline; ++rounds) {
    if (extraSetups.due()) {
      const Counters s0 = Counters::now();
      setup().dispose();
      setupCounts = setupCounts + (Counters::now() - s0);
    }
    const Tensor& x = inputs[static_cast<std::size_t>(rounds % kInputs)];
    std::vector<float> yf, yq;
    if (args.trace && rounds % 2 == 1) {
      kernels.profile([&] { yf = infer(*twins.f32, x, spans, "f32"); });
      kernels.profile([&] { yq = infer(*twins.int8, x, spans, "int8"); });
      kernels.endRound();
    } else {
      auto t0 = Clock::now();
      yf = infer(*twins.f32, x, spans, "f32");
      f32Ms.push_back(msSince(t0));
      t0 = Clock::now();
      yq = infer(*twins.int8, x, spans, "int8");
      int8Ms.push_back(msSince(t0));
      roundMs.push_back(f32Ms.back() + int8Ms.back());
    }
    report.op(softmaxRowsOk(yf, classes));
    report.op(softmaxRowsOk(yq, classes));
    if (rounds == 0) {
      firstF32 = std::move(yf);
      firstInt8 = std::move(yq);
    }
    if (rounds % 16 == 0) machine.sampleThreads();
  }
  const Counters perRun = Counters::now() - c0 - setupCounts;

  // Output checks, outside the clock.
  report.check("no_tensor_leak", tfjs::memory().numTensors == tensorsBefore);
  const std::vector<float> x0 = inputs[0].dataSync();
  checkAgainstRef(report, "f32_matches_ref", firstF32,
                  predictOnRef(f32Bundle, x0, inShape), classes, kF32Tol);
  checkAgainstRef(report, "int8_matches_ref", firstInt8,
                  predictOnRef(int8Bundle, x0, inShape), classes, kInt8Tol);
  Spans off(false);
  checkOneThread(report, "f32_one_thread_bitwise",
                 [&] { return infer(*twins.f32, inputs[0], off, "f32"); },
                 firstF32);
  checkOneThread(report, "int8_one_thread_bitwise",
                 [&] { return infer(*twins.int8, inputs[0], off, "int8"); },
                 firstInt8);
  report.check("f32_bundle_roundtrip_bitwise", [&] {
    const auto loaded = hostWeights(*twins.f32);
    if (loaded.size() != sourceWeights.size()) return false;
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      if (!bitwiseEqual(loaded[i], sourceWeights[i])) return false;
    }
    return true;
  }());
  twins.dispose();
  for (Tensor& t : inputs) t.dispose();

  const double f32Median = median(f32Ms);
  const double int8Median = median(int8Ms);
  report.endToEnd("setup_s", median(setupS), "s");
  report.endToEnd("latency_ms_p50", f32Median, "ms");
  // Both twins' inferences over the median round: the int8 twin is gated
  // only through this share of the round, since on its own its run-to-run
  // spread exceeded any usable bound (README, "Spread and bounds").
  report.endToEnd("throughput_per_s", 2000.0 / median(roundMs), "1/s");
  report.endToEnd("peak_rss_mb", peakRssMb(), "MB");
  Json& timing = report.detail()["end_to_end"];
  timing["f32_ms_p50"] = f32Median;
  timing["int8_ms_p50"] = int8Median;
  const double flops =
      static_cast<double>(tfjs::models::mobileNetV1Flops(opts));
  timing["f32_gflops"] = flops / (f32Median * 1e6);
  timing["int8_gops"] = flops / (int8Median * 1e6);
  if (!args.trace) return;

  report.metric("io.deserialize_f32_ms", spans.medianMs("io.deserialize_f32"),
                "ms");
  report.metric("io.deserialize_int8_ms",
                spans.medianMs("io.deserialize_int8"), "ms");
  report.metric("io.bundle_f32_bytes",
                static_cast<double>(f32Bundle.weights.totalBytes()), "bytes");
  report.metric("io.bundle_int8_bytes",
                static_cast<double>(int8Bundle.weights.totalBytes()), "bytes");
  report.metric("layers.predict_ms", spans.medianMs("layers.predict.f32"),
                "ms");
  report.metric("engine.readback_ms", spans.medianMs("engine.readback.f32"),
                "ms");
  reportPerOp(report, perRun, 2.0 * rounds);
  kernels.report(report);
}

}  // namespace perfbench
