#include <gtest/gtest.h>

#include <cmath>

#include "autograd/grad_check.h"
#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/conv.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

using nn::BatchNorm;
using nn::Dropout;
using nn::Linear;
using nn::TemporalConv1d;

TEST(Module, ParameterRegistryIsRecursive) {
  Rng rng(1);
  struct Net : nn::Module {
    Net(Rng* rng) : fc1(3, 4, rng), fc2(4, 2, rng) {
      RegisterModule("fc1", &fc1);
      RegisterModule("fc2", &fc2);
    }
    Linear fc1;
    Linear fc2;
  } net(&rng);
  const auto named = net.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "fc1.weight");
  EXPECT_EQ(named[3].first, "fc2.bias");
  EXPECT_EQ(net.NumParameters(), 3 * 4 + 4 + 4 * 2 + 2);
}

TEST(Module, TrainingFlagPropagates) {
  Rng rng(2);
  struct Net : nn::Module {
    Net() : dropout(0.5, 1) { RegisterModule("dropout", &dropout); }
    Dropout dropout;
  } net;
  EXPECT_TRUE(net.dropout.training());
  net.SetTraining(false);
  EXPECT_FALSE(net.dropout.training());
}

TEST(Init, XavierBoundsDependOnFans) {
  Rng rng(3);
  Tensor w = nn::XavierUniform({64, 64}, 64, 64, &rng);
  const double limit = std::sqrt(6.0 / 128.0);
  EXPECT_LE(MaxAll(w), limit);
  EXPECT_GE(MinAll(w), -limit);
  EXPECT_GT(MaxAll(Abs(w)), limit * 0.5);  // Actually spreads out.
}

TEST(Linear, ShapeAndValues) {
  Rng rng(4);
  Linear fc(3, 2, &rng);
  Variable x(Tensor::Ones({5, 3}), false);
  const Variable y = fc.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{5, 2}));
  // All rows identical for identical inputs.
  for (int64_t r = 1; r < 5; ++r) {
    EXPECT_DOUBLE_EQ(y.value().At({r, 0}), y.value().At({0, 0}));
  }
}

TEST(Linear, AppliesToLastDimOfHigherRank) {
  Rng rng(5);
  Linear fc(3, 7, &rng);
  Variable x(Tensor::Ones({2, 4, 5, 3}), false);
  EXPECT_EQ(fc.Forward(x).shape(), (Shape{2, 4, 5, 7}));
}

TEST(Linear, GradCheck) {
  Rng rng(6);
  Linear fc(3, 2, &rng, /*with_bias=*/true);
  const std::vector<Variable> params = fc.Parameters();
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Variable>& v) {
        // Probe input gradients; the parameter path is exercised via the
        // training tests.
        return ag::SumAll(ag::Mul(fc.Forward(v[0]), fc.Forward(v[0])));
      },
      {Tensor::Rand({2, 3}, &rng, -1.0, 1.0)}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(TemporalConv, CausalPreservesLength) {
  Rng rng(7);
  TemporalConv1d conv(4, 6, /*kernel_size=*/2, /*dilation=*/1,
                      /*causal=*/true, &rng);
  Variable x(Tensor::Rand({2, 12, 3, 4}, &rng), false);
  EXPECT_EQ(conv.Forward(x).shape(), (Shape{2, 12, 3, 6}));
}

TEST(TemporalConv, ValidModeShrinksLength) {
  Rng rng(8);
  TemporalConv1d conv(4, 4, /*kernel_size=*/3, /*dilation=*/2,
                      /*causal=*/false, &rng);
  Variable x(Tensor::Rand({1, 12, 2, 4}, &rng), false);
  EXPECT_EQ(conv.Forward(x).dim(1), 12 - (3 - 1) * 2);
}

TEST(TemporalConv, CausalityNoLeakFromFuture) {
  // Changing inputs at time t must not change outputs before t.
  Rng rng(9);
  TemporalConv1d conv(2, 2, /*kernel_size=*/3, /*dilation=*/2,
                      /*causal=*/true, &rng);
  Tensor base = Tensor::Rand({1, 10, 1, 2}, &rng);
  Tensor modified = base.Clone();
  const int64_t t_changed = 6;
  for (int64_t t = t_changed; t < 10; ++t) {
    for (int64_t d = 0; d < 2; ++d) modified.At({0, t, 0, d}) += 10.0;
  }
  const Tensor out_base = conv.Forward(Variable(base, false)).value();
  const Tensor out_mod = conv.Forward(Variable(modified, false)).value();
  for (int64_t t = 0; t < t_changed; ++t) {
    for (int64_t d = 0; d < 2; ++d) {
      EXPECT_DOUBLE_EQ(out_base.At({0, t, 0, d}), out_mod.At({0, t, 0, d}))
          << "leak at t=" << t;
    }
  }
  // And outputs at/after the change do differ.
  EXPECT_FALSE(out_base.AllClose(out_mod, 1e-9));
}

TEST(TemporalConv, MatchesManualComputation) {
  Rng rng(10);
  TemporalConv1d conv(1, 1, /*kernel_size=*/2, /*dilation=*/1,
                      /*causal=*/true, &rng, /*with_bias=*/false);
  // Extract the kernel.
  const Tensor w = conv.Parameters()[0].value();  // [2, 1, 1]
  Tensor x({1, 4, 1, 1});
  for (int64_t t = 0; t < 4; ++t) x.At({0, t, 0, 0}) = t + 1.0;
  const Tensor y = conv.Forward(Variable(x, false)).value();
  // y_t = w0 * x_{t-1} + w1 * x_t (x_{-1} = 0).
  EXPECT_NEAR(y.At({0, 0, 0, 0}), w.data()[1] * 1.0, 1e-12);
  EXPECT_NEAR(y.At({0, 2, 0, 0}),
              w.data()[0] * 2.0 + w.data()[1] * 3.0, 1e-12);
}

TEST(TemporalConv, GradCheck) {
  Rng rng(11);
  TemporalConv1d conv(2, 2, 2, 1, true, &rng);
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Variable>& v) {
        const Variable y = conv.Forward(v[0]);
        return ag::SumAll(ag::Mul(y, y));
      },
      {Tensor::Rand({1, 5, 2, 2}, &rng, -1.0, 1.0)}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(BatchNorm, NormalizesPerChannelInTraining) {
  Rng rng(12);
  BatchNorm bn(3);
  Tensor x = Tensor::Rand({64, 3}, &rng, 5.0, 9.0);
  const Tensor y = bn.Forward(Variable(x, false)).value();
  for (int64_t c = 0; c < 3; ++c) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t r = 0; r < 64; ++r) mean += y.At({r, c});
    mean /= 64.0;
    for (int64_t r = 0; r < 64; ++r) {
      var += (y.At({r, c}) - mean) * (y.At({r, c}) - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm, RunningStatsConvergeAndDriveEvalMode) {
  Rng rng(13);
  BatchNorm bn(2);
  for (int step = 0; step < 200; ++step) {
    Tensor x = Tensor::Rand({32, 2}, &rng, 2.0, 4.0);  // mean ~3
    bn.Forward(Variable(x, false));
  }
  EXPECT_NEAR(bn.running_mean().data()[0], 3.0, 0.15);
  bn.SetTraining(false);
  // In eval mode an input equal to the running mean maps to ~beta = 0.
  Tensor probe({1, 2});
  probe.data()[0] = bn.running_mean().data()[0];
  probe.data()[1] = bn.running_mean().data()[1];
  const Tensor y = bn.Forward(Variable(probe, false)).value();
  EXPECT_NEAR(y.data()[0], 0.0, 1e-6);
}

TEST(BatchNorm, WorksOn4dTensors) {
  Rng rng(14);
  BatchNorm bn(4);
  Variable x(Tensor::Rand({2, 5, 3, 4}, &rng), false);
  EXPECT_EQ(bn.Forward(x).shape(), (Shape{2, 5, 3, 4}));
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout dropout(0.5, 1);
  dropout.SetTraining(false);
  Rng rng(17);
  Tensor x = Tensor::Rand({100}, &rng);
  EXPECT_TRUE(dropout.Forward(Variable(x, false)).value().AllClose(x));
}

TEST(Dropout, TrainingZeroesAndRescales) {
  Dropout dropout(0.5, 2);
  Tensor x = Tensor::Ones({10000});
  const Tensor y = dropout.Forward(Variable(x, false)).value();
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.size(); ++i) {
    if (y.data()[i] == 0.0) {
      ++zeros;
    } else {
      EXPECT_DOUBLE_EQ(y.data()[i], 2.0);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_NEAR(zeros, 5000, 200);
  // Expectation is preserved.
  EXPECT_NEAR(MeanAll(y), 1.0, 0.05);
}

TEST(Activations, GluHalvesChannelsAndGates) {
  Tensor x = Tensor::FromVector({1, 4}, {2.0, 3.0, 0.0, 100.0});
  const Tensor y = nn::Glu(Variable(x, false)).value();
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_NEAR(y.data()[0], 2.0 * 0.5, 1e-9);       // sigmoid(0) = 0.5
  EXPECT_NEAR(y.data()[1], 3.0 * 1.0, 1e-6);       // sigmoid(100) ~= 1
  EXPECT_DEATH(nn::Glu(Variable(Tensor::Ones({1, 3}), false)), "");
}

TEST(Activations, GluGradCheck) {
  Rng rng(18);
  GradCheckResult result = CheckGradients(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(nn::Glu(v[0]));
      },
      {Tensor::Rand({3, 6}, &rng, -1.0, 1.0)}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace autocts
