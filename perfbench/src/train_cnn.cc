// train-cnn — Sequential::fit with adam on a conv/pool/conv/pool/dense CNN
// over seeded synthetic digits. The same kernels as inference run backward
// here and the optimizer writes every weight each step, so an inference-only
// gain that costs training (in-place reuse, caches keyed by weight buffer)
// shows. The only workload that loads autodiff.
#include <algorithm>
#include <cmath>
#include <memory>

#include "autodiff/optimizers.h"
#include "data/synthetic.h"
#include "harness.h"
#include "layers/conv_layers.h"
#include "layers/core_layers.h"
#include "layers/losses.h"
#include "ops/ops.h"

namespace perfbench {
namespace {

namespace L = tfjs::layers;
using tfjs::Tensor;

constexpr int kSize = 12;        // digit images are kSize x kSize x 1
constexpr int kClasses = 4;
constexpr float kNoise = 0.5f;
constexpr int kTrain = 256;
constexpr int kHeldOut = 128;    // a multiple of kEvalBatch
constexpr int kBatch = 16;
constexpr int kEvalBatch = 32;
constexpr int kSetups = 60;
constexpr float kLearningRate = 0.01f;
// Held-out accuracy must beat chance (1 / kClasses) by this much.
constexpr double kAccuracyMargin = 0.5;
constexpr double kRefTol = 1e-5;

std::unique_ptr<L::Sequential> buildCnn() {
  auto m = std::make_unique<L::Sequential>("cnn");
  for (int filters : {8, 16}) {
    L::Conv2DOptions c;
    c.filters = filters;
    c.padding = "same";
    c.activation = "relu";
    m->add(std::make_shared<L::Conv2D>(c));
    m->add(std::make_shared<L::MaxPooling2D>());
  }
  m->add(std::make_shared<L::Flatten>());
  L::DenseOptions d;
  d.units = kClasses;
  d.activation = "softmax";
  m->add(std::make_shared<L::Dense>(d));
  L::CompileOptions c;
  c.optimizer = "adam";
  c.learningRate = kLearningRate;
  c.loss = "categoricalCrossentropy";
  c.metrics = {"accuracy"};
  m->compile(c);
  return m;
}

L::FitOptions epochOptions(std::uint64_t seed) {
  L::FitOptions f;
  f.epochs = 1;
  f.batchSize = kBatch;
  f.seed = seed;
  return f;
}

}  // namespace

void runTrainCnn(const Args& args, Report& report, MachineWatch& machine) {
  // Trains at one engine thread. On these tensors the default thread count
  // trained no faster (about 4000 examples/s both ways in the same quiet
  // spell), and its run-to-run spread was several times wider (README,
  // "Spread and bounds").
  const int defaultThreads = tfjs::getNumThreads();
  tfjs::setNumThreads(1);
  Spans spans(args.trace);
  auto train = tfjs::data::makeSyntheticDigits(kTrain, kSize, kClasses, kNoise,
                                               args.seed * 3 + 1);
  auto held = tfjs::data::makeSyntheticDigits(kHeldOut, kSize, kClasses,
                                              kNoise, args.seed * 3 + 2);
  auto first = tfjs::data::makeSyntheticDigits(kBatch, kSize, kClasses, kNoise,
                                               args.seed * 3 + 3);

  // Setup: build and compile the model, then take the first training step.
  // The first set-up gives the model that is trained; the others are spread
  // over the run.
  std::vector<double> setupS;
  auto setup = [&] {
    const auto t0 = Clock::now();
    auto m = buildCnn();
    m->fit(first.images, first.labels, epochOptions(args.seed));
    setupS.push_back(msSince(t0) / 1000.0);
    return m;
  };
  std::unique_ptr<L::Sequential> model = setup();
  machine.sampleThreads();

  // Timed epochs over the training set, each followed by a timed predict
  // of the held-out digits. A traced run runs every other epoch under the
  // profiler (the kernel table; the epoch times come from the others),
  // evaluates the training examples after each epoch (fit minus evaluate
  // is the backward pass plus the update) and times one standalone adam
  // step.
  auto adam = tfjs::autodiff::makeOptimizer("adam", kLearningRate);
  const auto trainable = model->trainableWeights();
  auto adamStep = [&] {
    adam->minimize(
        [&] {
          return L::categoricalCrossentropy(first.labels,
                                            model->apply(first.images, true));
        },
        false, trainable);
  };
  if (args.trace) adamStep();  // creates the optimizer's slots
  const std::size_t tensorsBefore = tfjs::memory().numTensors;
  std::vector<double> epochMs, predictMs;
  std::vector<float> losses;
  KernelTable kernels;
  Counters fitCounts;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  Spreader extraSetups(args.seconds, kSetups - 1);
  // Sequential::dispose leaves adam's two slot tensors per trainable
  // variable behind, so a set-up cycle may leak exactly that many and no
  // more; a cycle that leaks anything else fails the leak check.
  std::size_t setupLeaks = 0;
  bool setupLeaksKnown = true;
  for (int epoch = 0; Clock::now() < deadline; ++epoch) {
    if (extraSetups.due()) {
      const std::size_t n = tfjs::memory().numTensors;
      auto m = setup();
      const std::size_t slots = 2 * m->trainableWeights().size();
      m->dispose();
      const std::size_t leaked = tfjs::memory().numTensors - n;
      setupLeaksKnown &= leaked == 0 || leaked == slots;
      setupLeaks += leaked;
    }
    auto fit = [&] {
      return model->fit(train.images, train.labels,
                        epochOptions(args.seed + 1 +
                                     static_cast<std::uint64_t>(epoch)));
    };
    L::History h;
    if (args.trace && epoch % 2 == 1) {
      kernels.profile([&] { h = fit(); });
      kernels.endRound();
    } else {
      const Counters k0 = Counters::now();
      const auto t0 = Clock::now();
      h = spans.time("layers.fit_epoch", fit);
      epochMs.push_back(msSince(t0));
      fitCounts = fitCounts + (Counters::now() - k0);
    }
    const float loss = h.loss.empty() ? NAN : h.loss.back();
    losses.push_back(loss);
    report.op(std::isfinite(loss));
    // The trained model classifies the held-out digits with the weights the
    // optimizer just wrote.
    const auto t1 = Clock::now();
    Tensor pt = spans.time("layers.predict",
                           [&] { return model->predict(held.images); });
    const std::vector<float> pv =
        spans.time("engine.readback", [&] { return pt.dataSync(); });
    pt.dispose();
    predictMs.push_back(msSince(t1));
    report.op(softmaxRowsOk(pv, kClasses));
    if (args.trace) {
      spans.time("layers.evaluate", [&] {
        return model->evaluate(train.images, train.labels, kBatch);
      });
      spans.time("autodiff.adam_step", adamStep);
    }
    if (epoch % 8 == 0) machine.sampleThreads();
  }
  const std::size_t epochs = losses.size();

  // Output checks, outside the clock.
  {
    Json d;
    d["setup_cycle_leaked_tensors"] = setupLeaks;
    report.check("no_tensor_leak",
                 setupLeaksKnown &&
                     tfjs::memory().numTensors == tensorsBefore + setupLeaks,
                 d);
  }
  {
    Json d;
    d["first_epoch_loss"] = static_cast<double>(losses.front());
    d["last_epoch_loss"] = static_cast<double>(losses.back());
    report.check("loss_falls",
                 epochs >= 2 && losses.back() < losses.front(), d);
  }
  // Cross-entropy and accuracy recomputed here from predict, against
  // evaluate() on the same held-out examples.
  const L::EvalResult ev =
      model->evaluate(held.images, held.labels, kEvalBatch);
  Tensor pred = model->predict(held.images);
  const std::vector<float> p = pred.dataSync();
  pred.dispose();
  const std::vector<float> y = held.labels.dataSync();
  const double eps = tfjs::Engine::get().backend().epsilon();
  double ce = 0;
  int correct = 0;
  for (std::size_t r = 0; r < p.size(); r += kClasses) {
    for (std::size_t c = r; c < r + kClasses; ++c) {
      ce -= y[c] * std::log(std::clamp(static_cast<double>(p[c]), eps, 1.0));
    }
    correct += y[r + static_cast<std::size_t>(argMax(p, r, kClasses))] == 1.0f;
  }
  ce /= kHeldOut;
  const double accuracy = static_cast<double>(correct) / kHeldOut;
  {
    Json d;
    d["evaluate_loss"] = static_cast<double>(ev.loss);
    d["recomputed_loss"] = ce;
    report.check("evaluate_loss_matches", std::fabs(ev.loss - ce) <=
                                              1e-4 * std::max(1.0, ce), d);
  }
  {
    Json d;
    d["evaluate_accuracy"] =
        ev.metrics.empty() ? -1.0 : static_cast<double>(ev.metrics[0]);
    d["recomputed_accuracy"] = accuracy;
    report.check("evaluate_accuracy_matches",
                 !ev.metrics.empty() &&
                     std::fabs(ev.metrics[0] - accuracy) <= 1e-6,
                 d);
  }
  {
    Json d;
    d["held_out_accuracy"] = accuracy;
    d["required"] = 1.0 / kClasses + kAccuracyMargin;
    report.check("beats_chance",
                 accuracy >= 1.0 / kClasses + kAccuracyMargin, d);
  }
  report.check("softmax_rows", softmaxRowsOk(p, kClasses));
  const tfjs::Shape heldShape = held.images.shape();
  checkAgainstRef(report, "predict_matches_ref", p,
                  predictOnRef(tfjs::io::serializeModel(*model, heldShape),
                               held.images.dataSync(), heldShape),
                  kClasses, kRefTol);
  // The one-thread outputs above must equal the default thread count's.
  tfjs::setNumThreads(defaultThreads);
  {
    Tensor t = model->predict(held.images);
    report.check("predict_default_threads_bitwise",
                 bitwiseEqual(t.dataSync(), p));
    t.dispose();
  }
  tfjs::setNumThreads(1);
  model->dispose();
  for (auto* d : {&train, &held, &first}) d->dispose();

  // Throughput of the median epoch: a spell of CPU steal slows some epochs
  // of a run, and a median moves less with it than a total does.
  const double examplesPerS = kTrain / (median(epochMs) / 1000.0);
  report.endToEnd("setup_s", median(setupS), "s");
  report.endToEnd("latency_ms_p50", median(predictMs), "ms");
  report.endToEnd("throughput_per_s", examplesPerS, "1/s");
  report.endToEnd("peak_rss_mb", peakRssMb(), "MB");
  Json& timing = report.detail()["end_to_end"];
  timing["train_examples_per_s"] = examplesPerS;
  timing["epochs"] = epochs;
  if (!args.trace) return;

  const double steps =
      static_cast<double>(epochMs.size()) * ((kTrain + kBatch - 1) / kBatch);
  reportPerOp(report, fitCounts, steps);
  report.metric("layers.predict_ms", spans.medianMs("layers.predict"), "ms");
  report.metric("engine.readback_ms", spans.medianMs("engine.readback"), "ms");
  kernels.report(report);
  report.metric("layers.fit_epoch_ms", spans.medianMs("layers.fit_epoch"),
                "ms");
  report.metric("layers.evaluate_ms", spans.medianMs("layers.evaluate"), "ms");
  report.metric("autodiff.backward_update_ms",
                spans.medianMs("layers.fit_epoch") -
                    spans.medianMs("layers.evaluate"),
                "ms");
  report.metric("autodiff.adam_step_ms", spans.medianMs("autodiff.adam_step"),
                "ms");
}

}  // namespace perfbench
