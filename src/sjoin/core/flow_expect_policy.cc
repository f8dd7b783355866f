#include "sjoin/core/flow_expect_policy.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "sjoin/common/check.h"
#include "sjoin/core/dominance.h"
#include "sjoin/core/model_repo.h"

namespace sjoin {

FlowExpectPolicy::FlowExpectPolicy(const StochasticProcess* r_process,
                                   const StochasticProcess* s_process,
                                   Options options)
    : r_process_(r_process), s_process_(s_process), options_(options) {
  SJOIN_CHECK(r_process != nullptr && s_process != nullptr);
  SJOIN_CHECK_GE(options_.lookahead, 1);
  ring_ = PredictionRing({r_process_, s_process_}, options_.lookahead);
}

void FlowExpectPolicy::Reset() {
  templates_.clear();
  ring_.Reset();
}

void FlowExpectPolicy::ComputeBenefits(const PolicyContext& ctx) {
  // benefits_[c*l + j]: expected benefit of keeping candidate c through
  // time t0+j+1 — the (negated) cost of its slice-j horizontal arc.
  Time t0 = ctx.now;
  Time l = options_.lookahead;
  benefits_.resize(candidates_.size() * static_cast<std::size_t>(l));
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const Tuple& tuple = candidates_[c];
    const PmfView* partner = ring_.Ahead(SideIndex(Partner(tuple.side)));
    for (Time j = 0; j < l; ++j) {
      double p = partner[j].Prob(tuple.value);
      if (ctx.window.has_value() &&
          (t0 + j + 1) - tuple.arrival > *ctx.window) {
        p = 0.0;  // Sliding-window semantics: expired tuples join nothing.
      }
      benefits_[c * static_cast<std::size_t>(l) +
                static_cast<std::size_t>(j)] = p;
    }
  }
}

void FlowExpectPolicy::PruneDominated(const PolicyContext& ctx) {
  // Theorem 3 over the lookahead horizon: a candidate whose cumulative
  // benefit curve B_c(m) = sum_{j<m} benefits_[c][j] is dominated by every
  // retained candidate's curve can be discarded without changing the
  // optimal flow cost. FindDominatedSubset guarantees exactly that shape
  // of discard set, and chains in the slice graph are interchangeable
  // (entered only at the source, identical hand-off arcs), so any flow
  // unit on a discarded chain moves to an unused dominating chain with no
  // benefit loss.
  const Time l = options_.lookahead;
  const std::size_t n_c = candidates_.size();
  const std::size_t max_discard = n_c - ctx.capacity;
  curves_.clear();
  curves_.reserve(n_c);
  for (std::size_t c = 0; c < n_c; ++c) {
    std::vector<double> cumulative(static_cast<std::size_t>(l));
    double sum = 0.0;
    for (Time j = 0; j < l; ++j) {
      sum += benefits_[c * static_cast<std::size_t>(l) +
                       static_cast<std::size_t>(j)];
      cumulative[static_cast<std::size_t>(j)] = sum;
    }
    curves_.emplace_back(std::move(cumulative));
  }
  curve_ptrs_.clear();
  curve_ptrs_.reserve(n_c);
  for (const TabulatedEcb& curve : curves_) curve_ptrs_.push_back(&curve);
  std::vector<std::size_t> dominated =
      FindDominatedSubset(curve_ptrs_, max_discard, l);
  if (dominated.empty()) return;

  // Compact candidates_ and their benefit rows (dominated is ascending).
  std::size_t next_dominated = 0;
  std::size_t write = 0;
  for (std::size_t c = 0; c < n_c; ++c) {
    if (next_dominated < dominated.size() && dominated[next_dominated] == c) {
      ++next_dominated;
      continue;
    }
    if (write != c) {
      candidates_[write] = candidates_[c];
      for (Time j = 0; j < l; ++j) {
        benefits_[write * static_cast<std::size_t>(l) +
                  static_cast<std::size_t>(j)] =
            benefits_[c * static_cast<std::size_t>(l) +
                      static_cast<std::size_t>(j)];
      }
    }
    ++write;
  }
  candidates_.resize(write);
  benefits_.resize(write * static_cast<std::size_t>(l));
}

namespace {

// Builds the skeleton slice graph for one (lookahead, candidate count)
// shape. Invoked through the ModelRepo, so the build runs once per shape
// process-wide no matter how many policies (sessions) use it.
FlowSliceSkeleton BuildFlowSliceSkeleton(Time l, int n_c) {
  FlowSliceSkeleton tpl;

  // Node and arc insertion order must exactly mirror the naive oracle's
  // cold build: adjacency order decides tie-breaks inside the solver.
  FlowGraph& graph = tpl.graph;
  NodeId source = graph.AddNode();
  NodeId sink = graph.AddNode();
  std::vector<NodeId> slice_base(static_cast<std::size_t>(l));
  for (Time j = 0; j < l; ++j) {
    slice_base[static_cast<std::size_t>(j)] =
        graph.AddNodes(n_c + 2 * static_cast<int>(j));
  }
  auto det_node = [&](Time j, int c) {
    return slice_base[static_cast<std::size_t>(j)] + static_cast<NodeId>(c);
  };
  auto undet_node = [&](Time j, Time j_arrived, StreamSide side) {
    return slice_base[static_cast<std::size_t>(j)] +
           static_cast<NodeId>(n_c) +
           static_cast<NodeId>(2 * (j_arrived - 1)) +
           static_cast<NodeId>(SideIndex(side));
  };

  tpl.source_arcs.reserve(static_cast<std::size_t>(n_c));
  for (int c = 0; c < n_c; ++c) {
    tpl.source_arcs.push_back(graph.AddArc(source, det_node(0, c), 1, 0.0));
  }

  // Benefit arcs get placeholder costs; SelectRetained rewrites them every
  // step before solving.
  for (Time j = 0; j < l; ++j) {
    bool last_slice = (j == l - 1);
    for (int c = 0; c < n_c; ++c) {
      NodeId from = det_node(j, c);
      NodeId to = last_slice ? sink : det_node(j + 1, c);
      tpl.det_arcs.push_back({from, graph.AddArc(from, to, 1, 0.0)});
    }
    for (Time j_arrived = 1; j_arrived <= j; ++j_arrived) {
      for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
        NodeId from = undet_node(j, j_arrived, side);
        NodeId to = last_slice ? sink : undet_node(j + 1, j_arrived, side);
        tpl.undet_arcs.push_back({from, graph.AddArc(from, to, 1, 0.0)});
      }
    }
    // Non-horizontal arcs within slice j (j >= 1): every duplicate node may
    // hand its slot to one of the two tuples arriving at t0+j. Costs are
    // always zero, so no handles are kept.
    if (j >= 1) {
      for (StreamSide new_side : {StreamSide::kR, StreamSide::kS}) {
        NodeId new_node = undet_node(j, j, new_side);
        for (int c = 0; c < n_c; ++c) {
          graph.AddArc(det_node(j, c), new_node, 1, 0.0);
        }
        for (Time j_arrived = 1; j_arrived < j; ++j_arrived) {
          for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
            graph.AddArc(undet_node(j, j_arrived, side), new_node, 1, 0.0);
          }
        }
      }
    }
  }
  return tpl;
}

}  // namespace

FlowExpectPolicy::GraphTemplate& FlowExpectPolicy::TemplateFor(int n_c) {
  std::unique_ptr<GraphTemplate>& slot = templates_[n_c];
  if (slot != nullptr) return *slot;
  slot = std::make_unique<GraphTemplate>();
  GraphTemplate& tpl = *slot;
  Time l = options_.lookahead;
  ModelRepo& repo =
      options_.repo != nullptr ? *options_.repo : ModelRepo::Global();
  char key[64];
  std::snprintf(key, sizeof(key), "flow-slice|l=%lld|nc=%d",
                static_cast<long long>(l), n_c);
  tpl.skeleton =
      repo.FlowSkeletonFor(key, [&] { return BuildFlowSliceSkeleton(l, n_c); });
  // Private working copy: SelectRetained rewrites its costs/capacities in
  // place every step, while the skeleton stays immutable and shared.
  tpl.graph = tpl.skeleton->graph;
  return tpl;
}

std::vector<TupleId> FlowExpectPolicy::SelectRetained(
    const PolicyContext& ctx) {
  // Candidate tuples: cache contents plus the two arrivals (all determined
  // nodes of the first slice).
  candidates_.clear();
  candidates_.reserve(ctx.cached->size() + ctx.arrivals->size());
  for (const Tuple& t : *ctx.cached) candidates_.push_back(t);
  for (const Tuple& t : *ctx.arrivals) candidates_.push_back(t);
  if (candidates_.size() <= ctx.capacity) {
    std::vector<TupleId> all;
    all.reserve(candidates_.size());
    for (const Tuple& t : candidates_) all.push_back(t.id);
    return all;
  }

  Time l = options_.lookahead;
  // Predictive pmfs of X^side_{t0+j}, j = 1..l.
  const StreamHistory* histories[2] = {ctx.history_r, ctx.history_s};
  ring_.Advance(ctx.now, histories);
  ComputeBenefits(ctx);

  if (options_.dominance_prune) {
    PruneDominated(ctx);
    if (candidates_.size() <= ctx.capacity) {
      std::vector<TupleId> all;
      all.reserve(candidates_.size());
      for (const Tuple& t : candidates_) all.push_back(t.id);
      return all;
    }
  }

  const int n_c = static_cast<int>(candidates_.size());
  GraphTemplate& tpl = TemplateFor(n_c);
  tpl.graph.ResetUnitCapacities();

  // Expected benefit of an undetermined node (side, arrival offset
  // j_arrived) kept through t0+j+1.
  auto undet_benefit = [&](StreamSide side, Time j_arrived, Time j) {
    if (ctx.window.has_value() && (j + 1) - j_arrived > *ctx.window) {
      return 0.0;
    }
    return ring_.At(SideIndex(side), ctx.now + j_arrived)
        .OverlapProb(ring_.At(SideIndex(Partner(side)), ctx.now + j + 1));
  };

  // Rewrite benefit-arc costs in the same slice-major order the handles
  // were recorded in.
  std::size_t det_next = 0;
  std::size_t undet_next = 0;
  for (Time j = 0; j < l; ++j) {
    for (int c = 0; c < n_c; ++c, ++det_next) {
      const FlowSliceSkeleton::ArcRef& ref = tpl.skeleton->det_arcs[det_next];
      tpl.graph.SetArcCost(
          ref.from, ref.index,
          -benefits_[static_cast<std::size_t>(c) *
                         static_cast<std::size_t>(l) +
                     static_cast<std::size_t>(j)]);
    }
    for (Time j_arrived = 1; j_arrived <= j; ++j_arrived) {
      for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
        const FlowSliceSkeleton::ArcRef& ref =
            tpl.skeleton->undet_arcs[undet_next++];
        tpl.graph.SetArcCost(ref.from, ref.index,
                             -undet_benefit(side, j_arrived, j));
      }
    }
  }

  NodeId source = 0;
  NodeId sink = 1;
  std::int64_t target = static_cast<std::int64_t>(ctx.capacity);
  MinCostFlowSolver::SolveOptions solve_options;
  solve_options.topology_unchanged = tpl.solved_before;
  MinCostFlowResult result =
      tpl.solver.Solve(tpl.graph, source, sink, target, solve_options);
  tpl.solved_before = true;
  SJOIN_CHECK_EQ(result.flow, target);

  // The decision at t0: candidates whose source arc carries flow stay.
  std::vector<TupleId> retained;
  retained.reserve(ctx.capacity);
  for (int c = 0; c < n_c; ++c) {
    if (tpl.graph.FlowOn(
            source, tpl.skeleton->source_arcs[static_cast<std::size_t>(c)]) >
        0) {
      retained.push_back(candidates_[static_cast<std::size_t>(c)].id);
    }
  }
  return retained;
}

}  // namespace sjoin
