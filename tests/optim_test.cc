#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autograd/variable_ops.h"
#include "core/searcher.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

// Minimizes f(w) = sum((w - target)^2) and returns the final w.
template <typename MakeOptimizer>
Tensor MinimizeQuadratic(MakeOptimizer make, int steps) {
  Variable w(Tensor::FromVector({3}, {5.0, -4.0, 2.0}), true);
  const Variable target(Tensor::FromVector({3}, {1.0, 2.0, 3.0}), false);
  auto optimizer = make(std::vector<Variable>{w});
  for (int i = 0; i < steps; ++i) {
    Variable loss = ag::MseLoss(w, target);
    optimizer->ZeroGrad();
    loss.Backward();
    optimizer->Step();
  }
  return w.value();
}

TEST(Adam, ConvergesOnQuadratic) {
  const Tensor w = MinimizeQuadratic(
      [](std::vector<Variable> params) {
        return std::make_unique<optim::Adam>(
            std::move(params), optim::Adam::Options{.learning_rate = 0.1});
      },
      400);
  EXPECT_NEAR(w.data()[0], 1.0, 1e-2);
  EXPECT_NEAR(w.data()[1], 2.0, 1e-2);
  EXPECT_NEAR(w.data()[2], 3.0, 1e-2);
}

TEST(Adam, FirstStepHasLearningRateMagnitude) {
  // Adam's bias-corrected first step is ~lr regardless of gradient scale.
  for (const double scale : {1e-3, 1.0, 1e3}) {
    Variable w(Tensor::Scalar(0.0), true);
    optim::Adam opt({w}, {.learning_rate = 0.05});
    Variable loss = ag::MulScalar(ag::SumAll(w), scale);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    EXPECT_NEAR(std::abs(w.value().item()), 0.05, 0.05 * 0.01)
        << "gradient scale " << scale;
  }
}

TEST(Adam, SkipsParametersWithoutGradients) {
  Variable used(Tensor::Scalar(1.0), true);
  Variable unused(Tensor::Scalar(5.0), true);
  optim::Adam opt({used, unused}, {.learning_rate = 0.1});
  Variable loss = ag::SumAll(used);
  opt.ZeroGrad();
  loss.Backward();
  opt.Step();
  EXPECT_NE(used.value().item(), 1.0);
  EXPECT_EQ(unused.value().item(), 5.0);
}

// Drives one Adam step of f(w) = mse(w, target); used by the
// serialization tests to produce identical gradient sequences.
void QuadraticStep(optim::Adam* optimizer, Variable* w,
                   const Variable& target) {
  Variable loss = ag::MseLoss(*w, target);
  optimizer->ZeroGrad();
  loss.Backward();
  optimizer->Step();
}

void ExpectValuesBitsEqual(const Variable& a, const Variable& b) {
  ASSERT_EQ(a.value().size(), b.value().size());
  EXPECT_EQ(std::memcmp(a.value().data(), b.value().data(),
                        static_cast<size_t>(a.value().size()) *
                            sizeof(double)),
            0);
}

TEST(Adam, ExportImportResumesBitIdentically) {
  const Variable target(Tensor::FromVector({3}, {1.0, 2.0, 3.0}), false);
  Variable w_a(Tensor::FromVector({3}, {5.0, -4.0, 2.0}), true);
  optim::Adam a({w_a}, {.learning_rate = 0.05});
  for (int i = 0; i < 5; ++i) QuadraticStep(&a, &w_a, target);

  // Hand the mid-run state to a freshly-constructed optimizer.
  const optim::AdamState exported = a.ExportState();
  EXPECT_EQ(exported.step_count, 5);
  Variable w_b(w_a.value().Clone(), true);
  optim::Adam b({w_b}, {.learning_rate = 0.05});
  const Status status = b.ImportState(exported);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(b.step_count(), 5);

  // The next ten steps — bias correction included — match bit for bit.
  for (int i = 0; i < 10; ++i) {
    QuadraticStep(&a, &w_a, target);
    QuadraticStep(&b, &w_b, target);
    ExpectValuesBitsEqual(w_a, w_b);
  }
  EXPECT_EQ(a.step_count(), 15);
  EXPECT_EQ(b.step_count(), 15);
}

TEST(Adam, ImportRewindsToTheExportedInstant) {
  const Variable target(Tensor::FromVector({3}, {1.0, 2.0, 3.0}), false);
  Variable w(Tensor::FromVector({3}, {5.0, -4.0, 2.0}), true);
  optim::Adam opt({w}, {.learning_rate = 0.05});
  for (int i = 0; i < 3; ++i) QuadraticStep(&opt, &w, target);

  const optim::AdamState snapshot = opt.ExportState();
  const Tensor w_snapshot = w.value().Clone();
  for (int i = 0; i < 2; ++i) QuadraticStep(&opt, &w, target);
  const Tensor w_after = w.value().Clone();

  // Rewind parameter and optimizer, replay the same two steps: identical
  // bits. This also proves ExportState deep-copied (the extra steps above
  // would otherwise have polluted the snapshot).
  w.mutable_value() = w_snapshot.Clone();
  ASSERT_TRUE(opt.ImportState(snapshot).ok());
  EXPECT_EQ(opt.step_count(), 3);
  for (int i = 0; i < 2; ++i) QuadraticStep(&opt, &w, target);
  EXPECT_EQ(std::memcmp(w.value().data(), w_after.data(),
                        3 * sizeof(double)),
            0);
}

TEST(Adam, ImportRejectsMismatchedStateWithoutSideEffects) {
  const Variable target(Tensor::Zeros({2}), false);
  Variable w(Tensor::FromVector({2}, {1.0, -1.0}), true);
  Variable w_control(Tensor::FromVector({2}, {1.0, -1.0}), true);
  optim::Adam opt({w}, {.learning_rate = 0.1});
  optim::Adam control({w_control}, {.learning_rate = 0.1});
  QuadraticStep(&opt, &w, target);
  QuadraticStep(&control, &w_control, target);

  optim::AdamState wrong_slots;
  wrong_slots.step_count = 1;
  wrong_slots.first_moment.resize(2);
  wrong_slots.second_moment.resize(2);
  EXPECT_FALSE(opt.ImportState(wrong_slots).ok());

  optim::AdamState wrong_shape = opt.ExportState();
  wrong_shape.first_moment[0] = Tensor::Zeros({3});
  EXPECT_FALSE(opt.ImportState(wrong_shape).ok());

  optim::AdamState half_defined = opt.ExportState();
  half_defined.second_moment[0] = Tensor();
  EXPECT_FALSE(opt.ImportState(half_defined).ok());

  optim::AdamState negative = opt.ExportState();
  negative.step_count = -1;
  EXPECT_FALSE(opt.ImportState(negative).ok());

  // Every rejected import left the optimizer untouched: it keeps stepping
  // in lockstep with the control.
  QuadraticStep(&opt, &w, target);
  QuadraticStep(&control, &w_control, target);
  ExpectValuesBitsEqual(w, w_control);
}

TEST(Adam, LazyMomentSlotsSurviveExportImport) {
  Variable used(Tensor::Scalar(1.0), true);
  Variable unused(Tensor::Scalar(5.0), true);
  optim::Adam opt({used, unused}, {.learning_rate = 0.1});
  Variable loss = ag::SumAll(used);
  opt.ZeroGrad();
  loss.Backward();
  opt.Step();

  const optim::AdamState state = opt.ExportState();
  EXPECT_TRUE(state.first_moment[0].defined());
  EXPECT_FALSE(state.first_moment[1].defined());  // Never received a grad.

  Variable used_b(used.value().Clone(), true);
  Variable unused_b(unused.value().Clone(), true);
  optim::Adam b({used_b, unused_b}, {.learning_rate = 0.1});
  ASSERT_TRUE(b.ImportState(state).ok());

  Variable loss_a = ag::SumAll(used);
  opt.ZeroGrad();
  loss_a.Backward();
  opt.Step();
  Variable loss_b = ag::SumAll(used_b);
  b.ZeroGrad();
  loss_b.Backward();
  b.Step();
  ExpectValuesBitsEqual(used, used_b);
  EXPECT_EQ(unused_b.value().item(), 5.0);
}

TEST(ClipGradNormChecked, RescalesOnlyWhenAboveThreshold) {
  Variable a(Tensor::FromVector({2}, {0.0, 0.0}), true);
  Variable loss = ag::SumAll(ag::MulScalar(a, 3.0));
  loss.Backward();  // grad = [3, 3], norm = sqrt(18) ~ 4.24
  double before = 0.0;
  EXPECT_TRUE(optim::ClipGradNormChecked({a}, 1.0, &before));
  EXPECT_NEAR(before, std::sqrt(18.0), 1e-9);
  EXPECT_NEAR(Norm(a.grad()), 1.0, 1e-6);

  // Below the threshold: untouched.
  a.ClearGrad();
  ag::SumAll(ag::MulScalar(a, 0.1)).Backward();
  EXPECT_TRUE(optim::ClipGradNormChecked({a}, 10.0));
  EXPECT_NEAR(a.grad().data()[0], 0.1, 1e-12);
}

// The search temperature (Section 3.2.2): 5.0 * 0.9^epoch, floored at 0.001.
TEST(Schedules, ExponentialDecaysToFloor) {
  EXPECT_DOUBLE_EQ(core::SearchTemperature(0), 5.0);
  EXPECT_NEAR(core::SearchTemperature(1), 4.5, 1e-12);
  EXPECT_NEAR(core::SearchTemperature(2), 4.05, 1e-12);
  EXPECT_DOUBLE_EQ(core::SearchTemperature(1000), 0.001);  // The floor.
  // Monotone decreasing.
  for (int e = 0; e < 50; ++e) {
    EXPECT_GE(core::SearchTemperature(e), core::SearchTemperature(e + 1));
  }
}

TEST(Optimizer, SetLearningRateTakesEffect) {
  Variable w(Tensor::Scalar(1.0), true);
  optim::Adam opt({w}, {.learning_rate = 0.0});
  opt.SetLearningRate(0.5);
  Variable loss = ag::SumAll(w);
  opt.ZeroGrad();
  loss.Backward();
  opt.Step();
  // Adam's first step moves each weight by the learning rate.
  EXPECT_NEAR(w.value().item(), 0.5, 1e-6);
}

TEST(Optimizer, TrainsATinyNetworkToFitXor) {
  // 2-4-1 MLP fits XOR; verifies end-to-end autograd + Adam integration.
  Rng rng(99);
  Variable w1(Tensor::Rand({2, 8}, &rng, -0.7, 0.7), true);
  Variable b1(Tensor::Zeros({8}), true);
  Variable w2(Tensor::Rand({8, 1}, &rng, -0.7, 0.7), true);
  Variable b2(Tensor::Zeros({1}), true);
  const Variable x(
      Tensor::FromVector({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1}), false);
  const Variable y(Tensor::FromVector({4, 1}, {0, 1, 1, 0}), false);
  optim::Adam opt({w1, b1, w2, b2}, {.learning_rate = 0.05});
  double final_loss = 1.0;
  for (int step = 0; step < 800; ++step) {
    const Variable h = ag::Tanh(ag::Add(ag::MatMul(x, w1), b1));
    const Variable out = ag::Sigmoid(ag::Add(ag::MatMul(h, w2), b2));
    Variable loss = ag::MseLoss(out, y);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    final_loss = loss.value().item();
  }
  EXPECT_LT(final_loss, 0.01);
}

}  // namespace
}  // namespace autocts
