// Hierarchical multi-CG/multi-node training: topology math, the
// two-level exchange cost model and the ring model under it, bitwise
// equivalence across transports and schedules (the determinism
// contract), the fault ladder at 8+ replicas, and the plain
// data-parallel contracts on a flat grid(N, 1) topology (synchronous
// SGD equals full-batch training; dead ranks are skipped).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/relu.h"
#include "src/parallel/hierarchical.h"
#include "src/runtime/task_pool.h"
#include "src/util/rng.h"

namespace swdnn::parallel {
namespace {

TEST(HierTopology, GridAndRaggedPlacement) {
  const HierTopology grid = HierTopology::grid(4, 4);
  EXPECT_EQ(grid.total_ranks, 16);
  EXPECT_EQ(grid.node_of(0), 0);
  EXPECT_EQ(grid.node_of(15), 3);
  EXPECT_EQ(grid.cg_of(6), 2);
  EXPECT_EQ(grid.ranks_in_node(3), 4);

  // 9 ranks over 4-CG nodes: 4 + 4 + 1.
  const HierTopology ragged = HierTopology::ragged(9, 4);
  EXPECT_EQ(ragged.nodes, 3);
  EXPECT_EQ(ragged.ranks_in_node(0), 4);
  EXPECT_EQ(ragged.ranks_in_node(2), 1);
  EXPECT_EQ(ragged.node_of(8), 2);

  EXPECT_THROW(HierTopology::grid(0, 4), std::invalid_argument);
  EXPECT_THROW(HierTopology::ragged(4, 0), std::invalid_argument);
}

TEST(HierCost, FlatMatchesRingModel) {
  HierCostModel cost;
  EXPECT_EQ(flat_exchange_seconds(1 << 20, 8, cost),
            ring_allreduce_seconds(1 << 20, 8, cost.inter));
  EXPECT_EQ(flat_exchange_seconds(1 << 20, 1, cost), 0.0);
}

TEST(HierCost, HierarchyBeatsFlatAtScale) {
  // 16 replicas as 4 nodes x 4 CGs, a ~160 KB gradient: the flat ring
  // pays 30 node-network latency hops; the hierarchy pays 6 plus cheap
  // on-chip NoC phases. The bench gates >= 1.3x on the same model.
  const std::int64_t bytes = 160 << 10;
  const std::vector<int> full(4, 4);
  const HierExchangeBreakdown hier = hier_exchange_seconds(bytes, full);
  const double flat = flat_exchange_seconds(bytes, 16);
  ASSERT_GT(hier.total(), 0.0);
  EXPECT_GT(flat / hier.total(), 1.3);
  EXPECT_GT(hier.intra_reduce_seconds, 0.0);
  EXPECT_EQ(hier.intra_reduce_seconds, hier.intra_broadcast_seconds);
  EXPECT_GT(hier.inter_ring_seconds, hier.intra_reduce_seconds);
}

TEST(HierCost, DegenerateShapes) {
  // Single rank: nothing to exchange.
  EXPECT_EQ(hier_exchange_seconds(1 << 20, {1}).total(), 0.0);
  // One node, many CGs: pure NoC, no inter ring.
  const HierExchangeBreakdown one_node = hier_exchange_seconds(1 << 20, {4});
  EXPECT_EQ(one_node.inter_ring_seconds, 0.0);
  EXPECT_GT(one_node.intra_reduce_seconds, 0.0);
  // One CG per node: no intra phases, pure ring.
  const HierExchangeBreakdown leaders =
      hier_exchange_seconds(1 << 20, {1, 1, 1});
  EXPECT_EQ(leaders.intra_reduce_seconds, 0.0);
  EXPECT_EQ(leaders.inter_ring_seconds,
            ring_allreduce_seconds(1 << 20, 3, InterconnectSpec{}));
  // A dead node drops out of the ring.
  const HierExchangeBreakdown degraded =
      hier_exchange_seconds(1 << 20, {2, 0, 2});
  EXPECT_EQ(degraded.inter_ring_seconds,
            ring_allreduce_seconds(1 << 20, 2, InterconnectSpec{}));
}

TEST(CostModel, SingleNodeIsFree) {
  EXPECT_EQ(ring_allreduce_seconds(1 << 20, 1), 0.0);
}

TEST(CostModel, BandwidthTermDominatesLargeMessages) {
  // 2(N-1)/N * bytes / bw: for large messages the time is nearly
  // node-count independent (the ring's hallmark).
  InterconnectSpec spec;
  spec.hop_latency_us = 0;
  const std::int64_t bytes = 1 << 30;
  const double t4 = ring_allreduce_seconds(bytes, 4, spec);
  const double t16 = ring_allreduce_seconds(bytes, 16, spec);
  EXPECT_NEAR(t16 / t4, (2.0 * 15 / 16) / (2.0 * 3 / 4), 1e-9);
  EXPECT_LT(t16 / t4, 1.3);
}

TEST(CostModel, LatencyTermGrowsWithNodes) {
  InterconnectSpec spec;
  spec.hop_latency_us = 10;
  EXPECT_GT(ring_allreduce_seconds(8, 16, spec),
            ring_allreduce_seconds(8, 4, spec));
}

TEST(CostModel, EfficiencyFallsWithNodesAtFixedCompute) {
  const std::int64_t grad_bytes = 64 << 20;  // a VGG-scale gradient
  const double compute = 0.05;
  double prev = 1.0;
  for (int nodes : {2, 8, 32}) {
    const double eff = data_parallel_efficiency(compute, grad_bytes, nodes);
    EXPECT_LT(eff, prev);
    EXPECT_GT(eff, 0.1);
    prev = eff;
  }
}

std::unique_ptr<dnn::Network> make_net(std::int64_t batch) {
  util::Rng rng(555);  // fixed seed: replicas identical
  auto net = std::make_unique<dnn::Network>();
  net->emplace<dnn::Convolution>(
      conv::ConvShape::from_output(batch, 1, 2, 2, 2, 3, 3), rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(2 * 2 * 2, 3, rng);
  return net;
}

std::vector<dnn::Batch> make_shards(int ranks, std::uint64_t seed) {
  dnn::SyntheticBars data(4, 3, 0.05, seed);
  std::vector<dnn::Batch> shards;
  for (int r = 0; r < ranks; ++r) shards.push_back(data.sample(2));
  return shards;
}

/// Runs `steps` steps under fixed options and returns the trainer.
std::unique_ptr<HierarchicalTrainer> run_steps(const HierTopology& topo,
                                               const HierStepOptions& options,
                                               int steps,
                                               std::int64_t bucket_bytes = 0,
                                               bool compiled = true) {
  auto trainer = std::make_unique<HierarchicalTrainer>(
      topo, [] { return make_net(2); }, 0.1, 0.9);
  trainer->set_min_bucket_bytes(bucket_bytes);
  if (compiled) trainer->compile({4, 4, 1, 2});
  for (int s = 0; s < steps; ++s) {
    trainer->train_step(make_shards(topo.total_ranks, 1000 + s), options);
  }
  return trainer;
}

double max_cross_trainer_divergence(HierarchicalTrainer& a,
                                    HierarchicalTrainer& b) {
  double worst = 0;
  const auto pa = a.replica(0).params();
  const auto pb = b.replica(0).params();
  EXPECT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    worst = std::max(worst, pa[p].param->max_abs_diff(*pb[p].param));
  }
  return worst;
}

TEST(Hierarchical, FlatAndHierTransportsBitwiseIdentical) {
  // The transports share one canonical reduction; across ragged replica
  // counts the trained parameters must match to the bit.
  for (const int ranks : {3, 5, 6, 9}) {
    const HierTopology topo = HierTopology::ragged(ranks, 4);
    HierStepOptions flat;
    flat.exchange = ExchangeMode::kFlatRing;
    flat.overlap = false;
    HierStepOptions hier;
    hier.exchange = ExchangeMode::kHierarchical;
    hier.overlap = false;
    auto a = run_steps(topo, flat, 3);
    auto b = run_steps(topo, hier, 3);
    EXPECT_EQ(max_cross_trainer_divergence(*a, *b), 0.0) << ranks << " ranks";
    EXPECT_EQ(a->max_replica_divergence(), 0.0);
  }
}

TEST(Hierarchical, OverlapIsBitwiseInvisible) {
  // Bucketed overlap changes when each bucket reduces, never what it
  // computes: serialized vs overlapped runs match to the bit, at any
  // bucket granularity.
  const HierTopology topo = HierTopology::grid(2, 4);
  HierStepOptions serialized;
  serialized.overlap = false;
  HierStepOptions overlapped;
  overlapped.overlap = true;
  for (const std::int64_t bucket_bytes : {std::int64_t{0}, std::int64_t{128},
                                          std::int64_t{1} << 20}) {
    auto a = run_steps(topo, serialized, 4, bucket_bytes);
    auto b = run_steps(topo, overlapped, 4, bucket_bytes);
    EXPECT_EQ(max_cross_trainer_divergence(*a, *b), 0.0)
        << "bucket_bytes=" << bucket_bytes;
  }
}

TEST(Hierarchical, ThreadCountAndEagerPathInvariance) {
  // The overlapped reduction runs inline on whichever pool worker
  // arrives last — with one host thread it runs on the caller. Both
  // orders, and the eager (uncompiled) replica path, produce the same
  // bits.
  const HierTopology topo = HierTopology::ragged(6, 4);
  HierStepOptions overlapped;
  const int before = runtime::host_threads();
  runtime::set_host_threads(1);
  auto serial = run_steps(topo, overlapped, 3);
  runtime::set_host_threads(4);
  auto pooled = run_steps(topo, overlapped, 3);
  auto eager = run_steps(topo, overlapped, 3, 0, /*compiled=*/false);
  runtime::set_host_threads(before);
  EXPECT_EQ(max_cross_trainer_divergence(*serial, *pooled), 0.0);
  EXPECT_EQ(max_cross_trainer_divergence(*serial, *eager), 0.0);
}

TEST(Hierarchical, BucketsPartitionEveryParameter) {
  auto trainer = std::make_unique<HierarchicalTrainer>(
      HierTopology::grid(2, 2), [] { return make_net(2); }, 0.1);
  trainer->compile({4, 4, 1, 2});
  std::int64_t bucketed = 0;
  std::size_t units = 0;
  for (const GradBucket& b : trainer->buckets()) {
    bucketed += b.elements;
    units += b.backward_units;
  }
  EXPECT_EQ(bucketed * 8, trainer->gradient_bytes());
  // Every backward emission unit is owned by exactly one bucket.
  EXPECT_EQ(units, trainer->replica(0).graph().nodes().size());
  EXPECT_THROW(trainer->set_min_bucket_bytes(64), std::logic_error);
}

TEST(Hierarchical, StepReportModelsBothSchedules) {
  const HierTopology topo = HierTopology::grid(4, 4);
  auto trainer = std::make_unique<HierarchicalTrainer>(
      topo, [] { return make_net(2); }, 0.1);
  trainer->compile({4, 4, 1, 2});
  const HierStepReport report =
      trainer->train_step(make_shards(16, 7), HierStepOptions{});
  EXPECT_EQ(report.live_ranks, 16);
  EXPECT_EQ(report.live_nodes, 4);
  EXPECT_EQ(report.exchange_bytes, trainer->gradient_bytes());
  EXPECT_TRUE(std::isfinite(report.loss));
  EXPECT_GT(report.forward_seconds, 0.0);
  EXPECT_GT(report.backward_seconds, report.forward_seconds);
  // This tiny gradient is latency-bound: the hierarchy's win is large.
  EXPECT_GT(report.hier_exchange_speedup(), 1.3);
  // Overlap can at best hide the exchange entirely — never beat that.
  // (It CAN lose to serialization when buckets are latency-dominated,
  // which is exactly what min_bucket_bytes coalescing is for; the
  // bench gates the >= 1.2x win at realistic sizes.)
  EXPECT_GT(report.step_serialized_seconds,
            report.forward_seconds + report.backward_seconds);
  EXPECT_GE(report.step_overlapped_seconds,
            report.forward_seconds + report.backward_seconds);
}

TEST(Hierarchical, FaultLadderAtEightReplicas) {
  // Kill CGs, then a whole node, mid-epoch; survivors stay in lockstep
  // and a revived rank rejoins bitwise.
  const HierTopology topo = HierTopology::grid(2, 4);
  auto trainer = std::make_unique<HierarchicalTrainer>(
      topo, [] { return make_net(2); }, 0.1, 0.9);
  trainer->compile({4, 4, 1, 2});
  HierStepOptions options;  // hierarchical + overlap: the worst case

  trainer->train_step(make_shards(8, 50), options);
  EXPECT_EQ(trainer->max_replica_divergence(), 0.0);

  // One CG down: its node stays in the ring with 3 live CGs.
  trainer->kill_rank(1);
  HierStepReport report = trainer->train_step(make_shards(8, 51), options);
  EXPECT_EQ(report.live_ranks, 7);
  EXPECT_EQ(report.live_nodes, 2);
  EXPECT_EQ(trainer->max_replica_divergence(), 0.0);

  // Node 1 entirely down: the inter ring shrinks to one leader.
  for (int r = 4; r < 8; ++r) trainer->kill_rank(r);
  report = trainer->train_step(make_shards(8, 52), options);
  EXPECT_EQ(report.live_ranks, 3);
  EXPECT_EQ(report.live_nodes, 1);
  EXPECT_EQ(report.exchange_hier.inter_ring_seconds, 0.0);
  EXPECT_EQ(trainer->max_replica_divergence(), 0.0);

  // Revive everyone: donor copy + optimizer state puts the returners
  // in exact lockstep from the next step on.
  trainer->revive_rank(1);
  for (int r = 4; r < 8; ++r) trainer->revive_rank(r);
  EXPECT_EQ(trainer->max_replica_divergence(), 0.0);
  report = trainer->train_step(make_shards(8, 53), options);
  EXPECT_EQ(report.live_ranks, 8);
  EXPECT_EQ(trainer->max_replica_divergence(), 0.0);
  EXPECT_TRUE(std::isfinite(report.loss));
}

TEST(Hierarchical, DeterministicRecoveryAcrossRuns) {
  // Two trainers living through the same kill/revive epoch end up
  // bitwise identical — recovery is part of the determinism contract.
  const HierTopology topo = HierTopology::grid(2, 4);
  const auto run_epoch = [&topo](bool overlap) {
    auto t = std::make_unique<HierarchicalTrainer>(
        topo, [] { return make_net(2); }, 0.1, 0.9);
    t->compile({4, 4, 1, 2});
    HierStepOptions options;
    options.overlap = overlap;
    t->train_step(make_shards(8, 90), options);
    t->kill_rank(3);
    t->kill_rank(6);
    t->train_step(make_shards(8, 91), options);
    t->revive_rank(3);
    t->train_step(make_shards(8, 92), options);
    t->revive_rank(6);
    t->train_step(make_shards(8, 93), options);
    return t;
  };
  auto a = run_epoch(true);
  auto b = run_epoch(false);
  EXPECT_EQ(max_cross_trainer_divergence(*a, *b), 0.0);
  EXPECT_EQ(a->max_replica_divergence(), 0.0);
}

TEST(Hierarchical, RejectsBadInputs) {
  auto trainer = std::make_unique<HierarchicalTrainer>(
      HierTopology::grid(1, 2), [] { return make_net(2); }, 0.1);
  std::vector<dnn::Batch> wrong(1);
  EXPECT_THROW(trainer->train_step(wrong), std::invalid_argument);
  trainer->kill_rank(0);
  trainer->kill_rank(1);
  EXPECT_THROW(trainer->train_step(make_shards(2, 5)), std::runtime_error);
}

TEST(Hierarchical, ThrowingReplicaDisarmsBackwardHooks) {
  // Rank 1's out-of-range label makes its loss throw after rank 0's
  // backward already counted its hook events. A later direct backward
  // on rank 1 (how tests build references) must not complete those
  // buckets and overwrite rank 0's gradients with an average.
  auto trainer = std::make_unique<HierarchicalTrainer>(
      HierTopology::grid(1, 2), [] { return make_net(2); }, 0.1);
  trainer->compile({4, 4, 1, 2});
  std::vector<dnn::Batch> shards = make_shards(2, 5);
  shards[1].labels[0] = 99;
  EXPECT_THROW(trainer->train_step(shards), std::invalid_argument);

  std::vector<std::vector<double>> before;
  for (const auto& pg : trainer->replica(0).params()) {
    const auto g = pg.grad->data();
    before.emplace_back(g.begin(), g.end());
  }
  tensor::Tensor d_logits({3, 2});
  d_logits.fill(0.25);
  trainer->replica(1).backward(d_logits);
  const auto after = trainer->replica(0).params();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(std::memcmp(after[p].grad->data().data(), before[p].data(),
                          before[p].size() * sizeof(double)),
              0)
        << "param " << p;
  }
}

// --- Plain data parallelism: the flat grid(N, 1) topology -------------

/// The data-parallel trainer over `nodes` single-CG nodes.
std::unique_ptr<HierarchicalTrainer> make_flat(int nodes, std::int64_t batch,
                                               double lr,
                                               double momentum = 0.0) {
  return std::make_unique<HierarchicalTrainer>(
      HierTopology::grid(nodes, 1), [batch] { return make_net(batch); }, lr,
      momentum);
}

std::vector<dnn::Batch> sample_shards(dnn::SyntheticBars& data, int nodes,
                                      std::int64_t batch) {
  std::vector<dnn::Batch> shards;
  for (int node = 0; node < nodes; ++node) shards.push_back(data.sample(batch));
  return shards;
}

TEST(DataParallel, TwoNodesMatchSingleNodeFullBatch) {
  // Synchronous SGD with gradient averaging over equal shards is
  // mathematically identical to full-batch training (the loss is a
  // per-batch mean): verify to fp tolerance.
  const std::int64_t batch = 8;
  dnn::SyntheticBars data(4, 3, 0.05, 66);
  const dnn::Batch full = data.sample(batch);

  // Single node, full batch.
  auto single = make_net(batch);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*single, opt);
  trainer.train_step(full);

  // Two nodes, half shards.
  auto dp = make_flat(2, 4, 0.1);
  std::vector<dnn::Batch> shards(2);
  for (int node = 0; node < 2; ++node) {
    shards[node].images = tensor::Tensor({4, 4, 1, 4});
    for (std::int64_t r = 0; r < 4; ++r)
      for (std::int64_t c = 0; c < 4; ++c)
        for (std::int64_t b = 0; b < 4; ++b)
          shards[node].images.at(r, c, 0, b) =
              full.images.at(r, c, 0, node * 4 + b);
    shards[node].labels.assign(full.labels.begin() + node * 4,
                               full.labels.begin() + (node + 1) * 4);
  }
  dp->train_step(shards);

  // Parameters must match the single-node result.
  const auto ps = single->params();
  const auto pd = dp->replica(0).params();
  ASSERT_EQ(ps.size(), pd.size());
  for (std::size_t p = 0; p < ps.size(); ++p) {
    EXPECT_LE(ps[p].param->max_abs_diff(*pd[p].param), 1e-12)
        << "param " << p;
  }
  // And the replicas stay in lockstep.
  EXPECT_EQ(dp->max_replica_divergence(), 0.0);
}

TEST(DataParallel, ReplicasStayInSyncOverManySteps) {
  auto dp = make_flat(3, 2, 0.2, 0.9);
  dnn::SyntheticBars data(4, 3, 0.05, 67);
  for (int step = 0; step < 10; ++step) {
    const HierStepReport r = dp->train_step(sample_shards(data, 3, 2));
    EXPECT_GE(r.exchange_flat_seconds, 0.0);
  }
  EXPECT_EQ(dp->max_replica_divergence(), 0.0);
}

TEST(DataParallel, GradientBytesCountAllParameters) {
  auto dp = make_flat(2, 2, 0.1);
  // conv filter 3*3*1*2 + fc weights 3*8 + fc bias 3 = 45 doubles.
  EXPECT_EQ(dp->gradient_bytes(), (3 * 3 * 1 * 2 + 3 * 8 + 3) * 8);
}

TEST(DataParallel, RejectsWrongShardCount) {
  auto dp = make_flat(2, 2, 0.1);
  std::vector<dnn::Batch> shards(1);
  EXPECT_THROW(dp->train_step(shards), std::invalid_argument);
  EXPECT_THROW(make_flat(0, 2, 0.1), std::invalid_argument);
}

TEST(DataParallelResilience, TrainingConvergesOnSurvivorsAfterAKill) {
  // Kill one rank mid-training: the reduction skips it, the survivors
  // stay in lockstep, and the loss keeps going down.
  auto dp = make_flat(3, 4, 0.3);
  dnn::SyntheticBars data(4, 3, 0.05, 68);

  double early = 0;
  for (int step = 0; step < 5; ++step) {
    const HierStepReport r = dp->train_step(sample_shards(data, 3, 4));
    EXPECT_EQ(r.live_ranks, 3);
    early += r.loss;
  }
  early /= 5;

  dp->kill_rank(1);
  EXPECT_FALSE(dp->rank_alive(1));
  EXPECT_EQ(dp->live_ranks(), 2);

  double late = 0;
  for (int step = 0; step < 35; ++step) {
    const HierStepReport r = dp->train_step(sample_shards(data, 3, 4));
    EXPECT_EQ(r.live_ranks, 2);
    if (step >= 30) late += r.loss;
  }
  late /= 5;

  EXPECT_LT(late, early);
  EXPECT_EQ(dp->max_replica_divergence(), 0.0);
}

TEST(DataParallelResilience, RevivedRankRejoinsInLockstepWithMomentum) {
  auto dp = make_flat(3, 2, 0.2, 0.9);
  dnn::SyntheticBars data(4, 3, 0.05, 69);
  for (int step = 0; step < 3; ++step) {
    dp->train_step(sample_shards(data, 3, 2));
  }
  dp->kill_rank(2);
  for (int step = 0; step < 3; ++step) {
    dp->train_step(sample_shards(data, 3, 2));
  }
  dp->revive_rank(2);
  EXPECT_TRUE(dp->rank_alive(2));
  EXPECT_EQ(dp->live_ranks(), 3);
  // Momentum state was copied with the parameters, so the revived rank
  // stays bit-identical through further updates.
  for (int step = 0; step < 3; ++step) {
    dp->train_step(sample_shards(data, 3, 2));
  }
  EXPECT_EQ(dp->max_replica_divergence(), 0.0);
}

TEST(DataParallelResilience, AllRanksDeadIsAnError) {
  auto dp = make_flat(2, 2, 0.1);
  dnn::SyntheticBars data(4, 3, 0.05, 70);
  dp->kill_rank(0);
  dp->kill_rank(1);
  EXPECT_THROW(dp->train_step(sample_shards(data, 2, 2)), std::runtime_error);
}

TEST(DataParallelResilience, ReviveWithNoSurvivorsThrows) {
  auto dp = make_flat(2, 2, 0.1);
  dp->kill_rank(0);
  dp->kill_rank(1);
  EXPECT_THROW(dp->revive_rank(0), std::runtime_error);
}

TEST(DataParallelResilience, KilledReplicaIsNeitherReadNorWritten) {
  // A dead rank's parameters and gradients stay out of the step: it
  // computes nothing, its (poisoned) gradients are never summed, and
  // nothing is written back to it. The average rescales to the live
  // count, so the survivors land bitwise where a 2-node run does.
  auto three = make_flat(3, 2, 0.1, 0.9);
  auto two = make_flat(2, 2, 0.1, 0.9);
  three->compile({4, 4, 1, 2});
  two->compile({4, 4, 1, 2});
  three->kill_rank(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> dead_params, dead_grads;
  for (const auto& pg : three->replica(2).params()) {
    pg.grad->fill(nan);
    pg.param->fill(-7.0);
    const auto w = pg.param->data();
    const auto g = pg.grad->data();
    dead_params.emplace_back(w.begin(), w.end());
    dead_grads.emplace_back(g.begin(), g.end());
  }

  for (int step = 0; step < 3; ++step) {
    std::vector<dnn::Batch> shards = make_shards(3, 200 + step);
    three->train_step(shards);
    shards.pop_back();
    two->train_step(shards);
  }

  EXPECT_EQ(max_cross_trainer_divergence(*three, *two), 0.0);
  EXPECT_EQ(three->max_replica_divergence(), 0.0);
  const auto dead = three->replica(2).params();
  for (std::size_t p = 0; p < dead.size(); ++p) {
    const std::size_t bytes = dead_params[p].size() * sizeof(double);
    EXPECT_EQ(std::memcmp(dead[p].param->data().data(),
                          dead_params[p].data(), bytes),
              0)
        << "param " << p;
    EXPECT_EQ(std::memcmp(dead[p].grad->data().data(), dead_grads[p].data(),
                          bytes),
              0)
        << "grad " << p;
  }
}

}  // namespace
}  // namespace swdnn::parallel
