#ifndef SJOIN_CORE_FLOW_EXPECT_POLICY_H_
#define SJOIN_CORE_FLOW_EXPECT_POLICY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sjoin/core/ecb.h"
#include "sjoin/engine/replacement_policy.h"
#include "sjoin/flow/flow_graph.h"
#include "sjoin/flow/min_cost_flow.h"
#include "sjoin/stochastic/discrete_distribution.h"
#include "sjoin/stochastic/prediction_ring.h"
#include "sjoin/stochastic/process.h"

/// \file
/// FlowExpect (Section 3): at every step, build the slice graph of all
/// predetermined replacement-decision sequences over a look-ahead of l
/// steps, with arc costs equal to negated *expected* benefits, solve the
/// min-cost flow of size k, and follow the decision the optimal flow makes
/// at the current time.
///
/// FlowExpect is expensive — Theta((k+l) l) nodes per step — and, as the
/// paper shows with a counter-example (Section 3.4), not optimal even for
/// unbounded l, because min-cost flow cannot represent strategies whose
/// future decisions depend on values observed later. It remains a strong
/// yardstick for heuristics.
///
/// This implementation keeps the per-step decision allocation-free once
/// warm: the slice graph for a fixed (candidate count, lookahead) shape is
/// built once and only its benefit-arc costs are rewritten each step, a
/// persistent MinCostFlowSolver reuses its workspaces and cached
/// topological order, predictions live in a PredictionRing (one new pmf
/// per step and side on independent streams), and an optional
/// Theorem 3 dominance prefilter shrinks (often eliminates) the solve.
/// Every fast path is differentially tested against the naive
/// rebuild-everything oracle in src/sjoin/testing/naive_flow_expect.h —
/// retained sets must match bit-for-bit, tie-breaks included.

namespace sjoin {

class ModelRepo;
struct FlowSliceSkeleton;

/// Online look-ahead policy via expected-cost min-cost flow.
class FlowExpectPolicy final : public ReplacementPolicy {
 public:
  struct Options {
    /// Look-ahead distance l >= 1 (benefits are counted at t0+1..t0+l).
    Time lookahead = 5;
    /// Theorem 3 prefilter: discard candidates whose cumulative expected
    /// benefit curve over the lookahead is dominated by every other
    /// candidate's before building the slice graph. An exchange argument
    /// shows the pruned optimum equals the full optimum (each discarded
    /// chain's flow can be moved to an unused dominating chain at no
    /// extra cost); when enough candidates are dominated the flow solve
    /// disappears entirely. The differential suite compares both settings
    /// against the oracle.
    bool dominance_prune = true;
    /// The repo slice-graph skeletons are borrowed from (not owned);
    /// nullptr = ModelRepo::Global(). Skeletons depend only on
    /// (lookahead, candidate count), so every FlowExpect policy in the
    /// process shares one build per shape; each policy keeps a private
    /// working copy of the graph, whose costs it rewrites per step.
    ModelRepo* repo = nullptr;
  };

  /// Processes are not owned and must outlive the policy.
  FlowExpectPolicy(const StochasticProcess* r_process,
                   const StochasticProcess* s_process, Options options);

  std::vector<TupleId> SelectRetained(const PolicyContext& ctx) override;

  /// Drops the cached graph templates and the prediction ring (neither
  /// carries numeric state across runs, so this never changes a decision).
  void Reset() override;

  const char* name() const override { return "FLOWEXPECT"; }

 private:
  /// Working state over one shared slice-graph skeleton (one candidate
  /// count): the skeleton — nodes, arcs, and the arc handles — is built
  /// once process-wide in the ModelRepo; this policy's private `graph`
  /// copy has its capacities reset and benefit-arc costs rewritten in
  /// place each step. The per-template solver caches the graph's
  /// topological order across steps.
  struct GraphTemplate {
    std::shared_ptr<const FlowSliceSkeleton> skeleton;
    FlowGraph graph;  // Mutable copy of skeleton->graph.
    MinCostFlowSolver solver;
    bool solved_before = false;
  };

  void ComputeBenefits(const PolicyContext& ctx);
  void PruneDominated(const PolicyContext& ctx);
  GraphTemplate& TemplateFor(int n_c);

  const StochasticProcess* r_process_;
  const StochasticProcess* s_process_;
  Options options_;

  // Per-step buffers, reused across calls.
  std::vector<Tuple> candidates_;
  PredictionRing ring_;  // Streams R = 0, S = 1; horizon = lookahead.
  std::vector<double> benefits_;  // benefits_[c * lookahead + j].
  std::vector<TabulatedEcb> curves_;
  std::vector<const EcbFn*> curve_ptrs_;
  std::map<int, std::unique_ptr<GraphTemplate>> templates_;
};

}  // namespace sjoin

#endif  // SJOIN_CORE_FLOW_EXPECT_POLICY_H_
