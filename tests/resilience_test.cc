// Self-healing training: the Trainer's checkpoint/rollback path for
// corrupted or faulting steps. (Losing and reviving data-parallel ranks
// is covered by parallel_hier_test.)

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/relu.h"
#include "src/dnn/trainer.h"
#include "src/util/rng.h"

namespace swdnn::dnn {
namespace {

std::unique_ptr<dnn::Network> make_net(std::int64_t batch) {
  util::Rng rng(555);  // fixed seed
  auto net = std::make_unique<dnn::Network>();
  net->emplace<dnn::Convolution>(
      conv::ConvShape::from_output(batch, 1, 2, 2, 2, 3, 3), rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(2 * 2 * 2, 3, rng);
  return net;
}

std::vector<std::vector<double>> snapshot(dnn::Network& net) {
  std::vector<std::vector<double>> out;
  for (const auto& pg : net.params()) {
    const auto d = pg.param->data();
    out.emplace_back(d.begin(), d.end());
  }
  return out;
}

void expect_equal(const std::vector<std::vector<double>>& a,
                  dnn::Network& net) {
  const auto params = net.params();
  ASSERT_EQ(a.size(), params.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto d = params[p].param->data();
    ASSERT_EQ(a[p].size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      ASSERT_EQ(a[p][i], d[i]) << "param " << p << " elem " << i;
    }
  }
}

TEST(TrainerResilience, RollbackRestoresTheLastCheckpoint) {
  auto net = make_net(4);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*net, opt);
  EXPECT_FALSE(trainer.rollback());  // checkpointing off

  const std::string path = ::testing::TempDir() + "/swdnn_ckpt.bin";
  trainer.enable_checkpointing(path, 1);
  EXPECT_FALSE(trainer.rollback());  // nothing saved yet

  dnn::SyntheticBars data(4, 3, 0.05, 71);
  const auto before = snapshot(*net);
  const auto step = trainer.train_step_resilient(data.sample(4));
  EXPECT_FALSE(step.rolled_back);
  EXPECT_EQ(trainer.checkpoints_written(), 1);

  // The step updated the parameters; rollback returns to the
  // checkpoint taken before the update.
  ASSERT_TRUE(trainer.rollback());
  expect_equal(before, *net);
  std::remove(path.c_str());
}

TEST(TrainerResilience, NonFiniteGradientsRollBackInsteadOfPoisoning) {
  auto net = make_net(4);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*net, opt);
  const std::string path = ::testing::TempDir() + "/swdnn_ckpt_nan.bin";
  trainer.enable_checkpointing(path, 1);

  dnn::SyntheticBars data(4, 3, 0.05, 72);
  trainer.train_step_resilient(data.sample(4));
  const auto good = snapshot(*net);

  // A batch corrupted by an unhealed fault (NaN pixels, the LDM
  // bit-flip failure mode) must not reach the parameters.
  dnn::Batch poison = data.sample(4);
  poison.images.data()[0] = std::numeric_limits<double>::quiet_NaN();
  const auto step = trainer.train_step_resilient(poison);
  EXPECT_TRUE(step.rolled_back);
  expect_equal(good, *net);

  // Training continues normally afterwards.
  const auto next = trainer.train_step_resilient(data.sample(4));
  EXPECT_FALSE(next.rolled_back);
  std::remove(path.c_str());
}

TEST(TrainerResilience, CheckpointIntervalThrottlesWrites) {
  auto net = make_net(2);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*net, opt);
  const std::string path = ::testing::TempDir() + "/swdnn_ckpt_int.bin";
  trainer.enable_checkpointing(path, 3);
  dnn::SyntheticBars data(4, 3, 0.05, 73);
  for (int step = 0; step < 7; ++step) {
    trainer.train_step_resilient(data.sample(2));
  }
  EXPECT_EQ(trainer.checkpoints_written(), 3);  // steps 0, 3, 6
  std::remove(path.c_str());
}

TEST(TrainerResilience, TrainingConvergesFromTheLastCheckpointAfterAFault) {
  // End-to-end: train, take a fault (rolled back), keep training; the
  // model still learns the synthetic task.
  auto net = make_net(8);
  dnn::Sgd opt(0.3);
  dnn::Trainer trainer(*net, opt);
  const std::string path = ::testing::TempDir() + "/swdnn_ckpt_conv.bin";
  trainer.enable_checkpointing(path, 1);
  dnn::SyntheticBars data(4, 3, 0.05, 74);

  double early = 0;
  for (int step = 0; step < 5; ++step) {
    early += trainer.train_step_resilient(data.sample(8)).loss.loss;
  }
  early /= 5;

  dnn::Batch poison = data.sample(8);
  poison.images.data()[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(trainer.train_step_resilient(poison).rolled_back);

  double late = 0;
  for (int step = 0; step < 40; ++step) {
    const double loss = trainer.train_step_resilient(data.sample(8)).loss.loss;
    if (step >= 35) late += loss;
  }
  late /= 5;
  EXPECT_LT(late, early);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swdnn::dnn
