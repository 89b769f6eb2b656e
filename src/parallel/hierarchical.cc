#include "src/parallel/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/dnn/loss.h"
#include "src/runtime/task_pool.h"

namespace swdnn::parallel {

// ---------------------------------------------------------------------
// Topology

HierTopology HierTopology::grid(int nodes, int cgs_per_node) {
  if (nodes <= 0 || cgs_per_node <= 0) {
    throw std::invalid_argument("HierTopology::grid: bad arguments");
  }
  HierTopology t;
  t.nodes = nodes;
  t.cgs_per_node = cgs_per_node;
  t.total_ranks = nodes * cgs_per_node;
  return t;
}

HierTopology HierTopology::ragged(int total_ranks, int cgs_per_node) {
  if (total_ranks <= 0 || cgs_per_node <= 0) {
    throw std::invalid_argument("HierTopology::ragged: bad arguments");
  }
  HierTopology t;
  t.cgs_per_node = cgs_per_node;
  t.total_ranks = total_ranks;
  t.nodes = (total_ranks + cgs_per_node - 1) / cgs_per_node;
  return t;
}

int HierTopology::ranks_in_node(int node) const {
  const int first = first_rank(node);
  if (first >= total_ranks) return 0;
  return std::min(cgs_per_node, total_ranks - first);
}

// ---------------------------------------------------------------------
// Cost models

double flat_exchange_seconds(std::int64_t bytes, int live_ranks,
                             const HierCostModel& cost) {
  if (live_ranks <= 1 || bytes <= 0) return 0.0;
  return ring_allreduce_seconds(bytes, live_ranks, cost.inter);
}

HierExchangeBreakdown hier_exchange_seconds(
    std::int64_t bytes, const std::vector<int>& live_per_node,
    const HierCostModel& cost) {
  HierExchangeBreakdown out;
  if (bytes <= 0) return out;
  int live_nodes = 0;
  int busiest = 0;
  int total_live = 0;
  for (const int k : live_per_node) {
    if (k > 0) ++live_nodes;
    busiest = std::max(busiest, k);
    total_live += k;
  }
  if (total_live <= 1) return out;
  // All nodes run their intra phase concurrently, so the phase costs
  // what the node with the most live CGs pays. Each phase (reduce to
  // the leader, broadcast back) is half a NoC ring: (k-1) of the
  // 2*(k-1) steps.
  const double intra_half =
      sim::noc_allreduce_seconds(bytes, busiest, cost.intra) / 2.0;
  out.intra_reduce_seconds = intra_half;
  out.intra_broadcast_seconds = intra_half;
  // Node leaders (one per node with a live CG) ring over the network.
  out.inter_ring_seconds =
      live_nodes > 1 ? ring_allreduce_seconds(bytes, live_nodes, cost.inter)
                     : 0.0;
  return out;
}

// ---------------------------------------------------------------------
// Trainer

namespace {

/// One backward emission unit: a compiled graph node (or one eager
/// layer), in the order backward fires the hook.
struct BackwardUnit {
  std::size_t first_layer = 0;
  /// Layers in [first, last] that own parameters, ascending.
  std::vector<std::size_t> param_layers;
  std::int64_t param_elements = 0;
  std::int64_t max_param_elements = 0;
  double base_seconds = 0;  ///< modeled forward cost of the unit
};

/// Disarms the backward hooks on scope exit, exceptions included: a
/// replica that throws mid-step must not leave them counting events
/// when a caller later drives a replica's backward directly.
class HookArmGuard {
 public:
  HookArmGuard(bool& step_active, bool& overlap_active)
      : step_active_(step_active), overlap_active_(overlap_active) {}
  ~HookArmGuard() {
    step_active_ = false;
    overlap_active_ = false;
  }
  HookArmGuard(const HookArmGuard&) = delete;
  HookArmGuard& operator=(const HookArmGuard&) = delete;

 private:
  bool& step_active_;
  bool& overlap_active_;
};

}  // namespace

HierarchicalTrainer::HierarchicalTrainer(
    const HierTopology& topology,
    const std::function<std::unique_ptr<dnn::Network>()>& make_replica,
    double learning_rate, double momentum, HierCostModel cost,
    ComputeCostModel compute)
    : topology_(topology), cost_(cost), compute_(compute) {
  if (topology_.total_ranks <= 0 || topology_.cgs_per_node <= 0 ||
      topology_.nodes != (topology_.total_ranks + topology_.cgs_per_node - 1) /
                             topology_.cgs_per_node) {
    throw std::invalid_argument("HierarchicalTrainer: inconsistent topology");
  }
  for (int r = 0; r < topology_.total_ranks; ++r) {
    replicas_.push_back(make_replica());
    optimizers_.emplace_back(learning_rate, momentum);
    alive_.push_back(true);
  }
}

HierarchicalTrainer::~HierarchicalTrainer() = default;

void HierarchicalTrainer::compile(
    const std::vector<std::int64_t>& shard_input_dims,
    const arch::Sw26010Spec* spec) {
  if (buckets_ready_) {
    throw std::logic_error(
        "HierarchicalTrainer::compile: buckets already fixed");
  }
  shared_context_ = std::make_unique<dnn::BackendContext>(spec);
  dnn::CompileOptions options;
  options.context = shared_context_.get();
  for (auto& replica : replicas_) {
    replica->compile(shard_input_dims, options);
  }
  setup_buckets(shard_input_dims);
}

void HierarchicalTrainer::set_min_bucket_bytes(std::int64_t bytes) {
  if (buckets_ready_) {
    throw std::logic_error(
        "HierarchicalTrainer::set_min_bucket_bytes: buckets already fixed");
  }
  min_bucket_bytes_ = std::max<std::int64_t>(bytes, 0);
}

void HierarchicalTrainer::setup_buckets(
    const std::vector<std::int64_t>& input_dims) {
  dnn::Network& model = *replicas_.front();

  // Activation dims per value (input first): the compiled stats already
  // carry them; eager networks re-run shape inference here.
  std::vector<std::vector<std::int64_t>> dims;
  if (model.compiled()) {
    dims = model.compiled_stats().activation_dims;
  } else {
    dims.push_back(input_dims);
    for (std::size_t i = 0; i < model.num_layers(); ++i) {
      dims.push_back(model.layer(i).infer_shape(dims.back()));
    }
  }
  const auto value_bytes = [&dims](std::size_t v) {
    std::int64_t n = 1;
    for (const std::int64_t d : dims.at(v)) n *= d;
    return n * 8;
  };

  // Backward emission units, in hook-firing order: compiled = graph
  // nodes last-to-first, eager = layers last-to-first.
  std::vector<BackwardUnit> units;
  const auto add_unit = [&](std::size_t first_layer, std::size_t last_layer) {
    BackwardUnit u;
    u.first_layer = first_layer;
    for (std::size_t li = first_layer; li <= last_layer; ++li) {
      const auto params = model.layer(li).params();
      if (params.empty()) continue;
      u.param_layers.push_back(li);
      for (const auto& pg : params) {
        const std::int64_t n = pg.param->size();
        u.param_elements += n;
        u.max_param_elements = std::max(u.max_param_elements, n);
      }
    }
    u.base_seconds =
        static_cast<double>(value_bytes(last_layer + 1)) /
            (compute_.activation_gbs * 1e9) +
        static_cast<double>(u.param_elements * 8) / (compute_.param_gbs * 1e9) +
        compute_.unit_overhead_us * 1e-6;
    units.push_back(std::move(u));
  };
  if (model.compiled()) {
    const auto& nodes = model.graph().nodes();
    for (std::size_t i = nodes.size(); i-- > 0;) {
      add_unit(nodes[i].first_layer, nodes[i].last_layer);
    }
  } else {
    for (std::size_t i = model.num_layers(); i-- > 0;) {
      add_unit(i, i);
    }
  }

  // Partition the unit sequence into buckets: accumulate until the
  // bucket holds min_bucket_bytes of gradient (at least one element),
  // then cut. A trailing run of parameter-less units folds into the
  // last bucket. Boundaries depend only on the graph and the
  // threshold — that is the determinism contract's first half.
  std::vector<std::vector<std::size_t>> bucket_units;  // unit indices
  std::vector<std::size_t> open;
  std::int64_t open_bytes = 0;
  const std::int64_t cut_bytes = std::max<std::int64_t>(min_bucket_bytes_, 1);
  for (std::size_t u = 0; u < units.size(); ++u) {
    open.push_back(u);
    open_bytes += units[u].param_elements * 8;
    if (open_bytes >= cut_bytes) {
      bucket_units.push_back(std::move(open));
      open.clear();
      open_bytes = 0;
    }
  }
  if (!open.empty()) {
    if (open_bytes > 0 || bucket_units.empty()) {
      bucket_units.push_back(std::move(open));
    } else {
      auto& last = bucket_units.back();
      last.insert(last.end(), open.begin(), open.end());
    }
  }

  buckets_.clear();
  layer_to_bucket_.assign(model.num_layers(), 0);
  scratch_.clear();
  unit_backward_seconds_.clear();
  unit_bucket_.clear();
  forward_seconds_total_ = 0;
  unit_backward_seconds_.resize(units.size(), 0.0);
  unit_bucket_.resize(units.size(), 0);
  for (std::size_t b = 0; b < bucket_units.size(); ++b) {
    GradBucket bucket;
    std::int64_t max_elems = 0;
    for (const std::size_t u : bucket_units[b]) {
      const BackwardUnit& unit = units[u];
      bucket.backward_units += 1;
      bucket.elements += unit.param_elements;
      for (const std::size_t li : unit.param_layers) {
        bucket.layer_indices.push_back(li);
      }
      max_elems = std::max(max_elems, unit.max_param_elements);
      layer_to_bucket_[unit.first_layer] = b;
      unit_bucket_[u] = b;
    }
    std::sort(bucket.layer_indices.begin(), bucket.layer_indices.end());
    buckets_.push_back(std::move(bucket));
    scratch_.emplace_back();
    scratch_.back()[0].resize(static_cast<std::size_t>(max_elems));
    scratch_.back()[1].resize(static_cast<std::size_t>(max_elems));
  }
  for (std::size_t u = 0; u < units.size(); ++u) {
    forward_seconds_total_ += units[u].base_seconds;
    unit_backward_seconds_[u] = compute_.backward_factor * units[u].base_seconds;
  }
  bucket_events_ =
      std::make_unique<std::atomic<int>[]>(buckets_.size());
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    bucket_events_[b].store(0, std::memory_order_relaxed);
  }

  // Install the hooks once; step_active_ gates them so replicas can be
  // driven directly (reference runs, divergence probes) without
  // corrupting event counts.
  for (int r = 0; r < topology_.total_ranks; ++r) {
    replicas_[static_cast<std::size_t>(r)]->set_backward_node_hook(
        [this, r](std::size_t first_layer, std::size_t /*last_layer*/) {
          on_backward_unit(r, first_layer);
        });
  }
  buckets_ready_ = true;
}

void HierarchicalTrainer::on_backward_unit(int rank, std::size_t first_layer) {
  if (!step_active_) return;
  (void)rank;
  const std::size_t b = layer_to_bucket_.at(first_layer);
  // The release half publishes this replica's gradient writes for the
  // bucket; the acquire half lets the last arriver observe every other
  // replica's writes before reducing.
  const int done =
      bucket_events_[b].fetch_add(1, std::memory_order_acq_rel) + 1;
  const int needed =
      step_live_ranks_ * static_cast<int>(buckets_[b].backward_units);
  if (overlap_active_ && done == needed) {
    // Last arriver reduces inline, on whatever pool worker (or the
    // caller, serially) got here — overlapping with the backward
    // chunks still running for earlier layers on the other lanes.
    reduce_bucket(b);
  }
}

void HierarchicalTrainer::reduce_bucket(std::size_t bucket_index) {
  const GradBucket& bucket = buckets_[bucket_index];
  auto& node_partial = scratch_[bucket_index][0];
  auto& total = scratch_[bucket_index][1];
  const double inv_live = 1.0 / static_cast<double>(step_live_ranks_);
  for (const std::size_t li : bucket.layer_indices) {
    const std::size_t num_params =
        replicas_.front()->layer(li).params().size();
    for (std::size_t p = 0; p < num_params; ++p) {
      // Canonical fixed order: sum live CGs ascending within each node,
      // then nodes ascending — identical for every transport, schedule,
      // and arrival order. This IS the hierarchy's data flow (CGs
      // reduce to their node leader, leaders ring), so the flat-ring
      // transport is modeled as paying flat cost for hierarchical
      // numbers, keeping the two modes bitwise-comparable.
      std::size_t n = 0;
      bool first_node = true;
      for (int node = 0; node < topology_.nodes; ++node) {
        const int first = topology_.first_rank(node);
        const int count = topology_.ranks_in_node(node);
        bool first_rank_in_node = true;
        for (int r = first; r < first + count; ++r) {
          if (!alive_[static_cast<std::size_t>(r)]) continue;
          const auto grad = replicas_[static_cast<std::size_t>(r)]
                                ->layer(li)
                                .params()[p]
                                .grad->data();
          n = grad.size();
          if (first_rank_in_node) {
            std::copy(grad.begin(), grad.end(), node_partial.begin());
            first_rank_in_node = false;
          } else {
            for (std::size_t e = 0; e < n; ++e) node_partial[e] += grad[e];
          }
        }
        if (first_rank_in_node) continue;  // node fully dead
        if (first_node) {
          std::copy(node_partial.begin(), node_partial.begin() + n,
                    total.begin());
          first_node = false;
        } else {
          for (std::size_t e = 0; e < n; ++e) total[e] += node_partial[e];
        }
      }
      for (std::size_t e = 0; e < n; ++e) total[e] *= inv_live;
      for (std::size_t r = 0; r < replicas_.size(); ++r) {
        if (!alive_[r]) continue;
        auto grad = replicas_[r]->layer(li).params()[p].grad->data();
        std::copy(total.begin(), total.begin() + n, grad.begin());
      }
    }
  }
}

HierStepReport HierarchicalTrainer::train_step(
    const std::vector<dnn::Batch>& shards, const HierStepOptions& options) {
  if (shards.size() != replicas_.size()) {
    throw std::invalid_argument(
        "HierarchicalTrainer: one shard per rank required");
  }
  HierStepReport report;
  report.live_ranks = live_ranks();
  report.live_nodes = live_nodes();
  if (report.live_ranks == 0) {
    throw std::runtime_error("HierarchicalTrainer: all ranks dead");
  }
  if (!buckets_ready_) {
    int first_live = 0;
    while (!alive_[static_cast<std::size_t>(first_live)]) ++first_live;
    setup_buckets(shards[static_cast<std::size_t>(first_live)].images.dims());
  }

  step_live_ranks_ = report.live_ranks;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    bucket_events_[b].store(0, std::memory_order_relaxed);
  }

  // Concurrent per-rank forward/backward, one pool chunk per rank.
  // Per-rank stats land in per-rank slots and reduce below in ascending
  // rank order — bitwise-identical at any thread count. When
  // overlapping, the backward hooks fire on these workers and the last
  // arriver of each bucket reduces it inline (see on_backward_unit).
  const std::size_t n_ranks = replicas_.size();
  std::vector<double> rank_loss(n_ranks, 0.0);
  std::vector<std::int64_t> rank_correct(n_ranks, 0);
  std::vector<std::int64_t> rank_samples(n_ranks, 0);
  HookArmGuard disarm_on_exit(step_active_, overlap_active_);
  overlap_active_ = options.overlap;
  step_active_ = true;
  runtime::parallel_for(
      0, static_cast<std::int64_t>(n_ranks), 1,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const auto rank = static_cast<std::size_t>(r);
          if (!alive_[rank]) continue;
          const dnn::Batch& shard = shards[rank];
          const tensor::Tensor logits = replicas_[rank]->forward(shard.images);
          const dnn::LossResult loss =
              dnn::softmax_cross_entropy(logits, shard.labels);
          replicas_[rank]->backward(loss.d_logits);
          const auto samples = static_cast<std::int64_t>(shard.labels.size());
          rank_loss[rank] = loss.loss * static_cast<double>(samples);
          rank_correct[rank] = loss.correct;
          rank_samples[rank] = samples;
        }
      });

  std::int64_t total_samples = 0;
  for (std::size_t rank = 0; rank < n_ranks; ++rank) {
    if (!alive_[rank]) continue;
    report.loss += rank_loss[rank];
    report.correct += rank_correct[rank];
    total_samples += rank_samples[rank];
  }
  report.loss /= static_cast<double>(total_samples);

  // Serialized schedule: every bucket reduces here, after all backwards
  // returned, in emission order. (Overlapped: they already reduced, the
  // moment their last event landed.) Same kernel, same order per
  // bucket, disjoint buckets — bitwise-identical either way.
  if (!options.overlap) {
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      reduce_bucket(b);
    }
  }

  // Identical update on every live replica, concurrently.
  runtime::parallel_for(
      0, static_cast<std::int64_t>(n_ranks), 1,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const auto rank = static_cast<std::size_t>(r);
          if (!alive_[rank]) continue;
          optimizers_[rank].step(replicas_[rank]->params());
        }
      });

  // --- Modeled time, both transports and both schedules -------------
  std::int64_t bytes = 0;
  for (const auto& b : buckets_) bytes += b.bytes();
  report.exchange_bytes = bytes;
  report.forward_seconds = forward_seconds_total_;
  for (const double s : unit_backward_seconds_) report.backward_seconds += s;
  const std::vector<int> per_node = live_per_node();
  report.exchange_flat_seconds =
      flat_exchange_seconds(bytes, report.live_ranks, cost_);
  report.exchange_hier = hier_exchange_seconds(bytes, per_node, cost_);

  const double exchange_one_shot =
      options.exchange == ExchangeMode::kFlatRing
          ? report.exchange_flat_seconds
          : report.exchange_hier.total();
  report.step_serialized_seconds = report.forward_seconds +
                                   report.backward_seconds + exchange_one_shot;

  // Overlapped timeline: backward emits units in order; bucket b's
  // exchange may start once its last unit finished AND the previous
  // bucket's exchange drained (one in-flight collective at a time —
  // the network is serial even when compute is not).
  double t = report.forward_seconds;
  std::vector<double> bucket_ready(buckets_.size(), 0.0);
  for (std::size_t u = 0; u < unit_backward_seconds_.size(); ++u) {
    t += unit_backward_seconds_[u];
    bucket_ready[unit_bucket_[u]] = t;
  }
  double comm_end = report.forward_seconds;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const double cost =
        options.exchange == ExchangeMode::kFlatRing
            ? flat_exchange_seconds(buckets_[b].bytes(), report.live_ranks,
                                    cost_)
            : hier_exchange_seconds(buckets_[b].bytes(), per_node, cost_)
                  .total();
    comm_end = std::max(comm_end, bucket_ready[b]) + cost;
  }
  report.step_overlapped_seconds = std::max(comm_end, t);
  return report;
}

void HierarchicalTrainer::kill_rank(int rank) {
  alive_.at(static_cast<std::size_t>(rank)) = false;
}

void HierarchicalTrainer::revive_rank(int rank) {
  const auto idx = static_cast<std::size_t>(rank);
  if (alive_.at(idx)) return;
  int donor = -1;
  for (std::size_t r = 0; r < alive_.size(); ++r) {
    if (alive_[r]) {
      donor = static_cast<int>(r);
      break;
    }
  }
  if (donor < 0) {
    throw std::runtime_error("revive_rank: no live replica to copy from");
  }
  const auto src = replicas_[static_cast<std::size_t>(donor)]->params();
  const auto dst = replicas_[idx]->params();
  for (std::size_t p = 0; p < src.size(); ++p) {
    const auto from = src[p].param->data();
    auto to = dst[p].param->data();
    std::copy(from.begin(), from.end(), to.begin());
  }
  optimizers_[idx].copy_state_from(
      optimizers_[static_cast<std::size_t>(donor)], dst, src);
  alive_[idx] = true;
}

int HierarchicalTrainer::live_ranks() const {
  int live = 0;
  for (const bool a : alive_) live += a ? 1 : 0;
  return live;
}

int HierarchicalTrainer::live_nodes() const {
  int live = 0;
  for (int node = 0; node < topology_.nodes; ++node) {
    const int first = topology_.first_rank(node);
    const int count = topology_.ranks_in_node(node);
    for (int r = first; r < first + count; ++r) {
      if (alive_[static_cast<std::size_t>(r)]) {
        ++live;
        break;
      }
    }
  }
  return live;
}

std::vector<int> HierarchicalTrainer::live_per_node() const {
  std::vector<int> per_node(static_cast<std::size_t>(topology_.nodes), 0);
  for (int node = 0; node < topology_.nodes; ++node) {
    const int first = topology_.first_rank(node);
    const int count = topology_.ranks_in_node(node);
    for (int r = first; r < first + count; ++r) {
      if (alive_[static_cast<std::size_t>(r)]) {
        ++per_node[static_cast<std::size_t>(node)];
      }
    }
  }
  return per_node;
}

double HierarchicalTrainer::max_replica_divergence() {
  double worst = 0;
  int reference_rank = -1;
  for (std::size_t r = 0; r < alive_.size(); ++r) {
    if (alive_[r]) {
      reference_rank = static_cast<int>(r);
      break;
    }
  }
  if (reference_rank < 0) return 0;
  const auto reference =
      replicas_[static_cast<std::size_t>(reference_rank)]->params();
  for (std::size_t rank = static_cast<std::size_t>(reference_rank) + 1;
       rank < replicas_.size(); ++rank) {
    if (!alive_[rank]) continue;
    const auto params = replicas_[rank]->params();
    for (std::size_t p = 0; p < params.size(); ++p) {
      worst = std::max(worst,
                       reference[p].param->max_abs_diff(*params[p].param));
    }
  }
  return worst;
}

std::int64_t HierarchicalTrainer::gradient_bytes() {
  std::int64_t bytes = 0;
  for (const auto& pg : replicas_.front()->params()) {
    bytes += pg.grad->size() * 8;
  }
  return bytes;
}

}  // namespace swdnn::parallel
