// Superstep 2's per-vertex half, written once for both refinement engines
// (the threaded Refiner in core/refiner.h and the BSP engine in
// engine/shp_bsp.h): a data vertex's move proposal, the context a cached
// proposal was computed under, and the Debug cross-checks both engines run
// on their proposal caches.
//
// A proposal is read from the vertex's queries' neighbor data (pull) or from
// its affinity accumulator (push), over the full k-way range or over the
// sibling buckets of its recursion group:
//
//   full-k pull   GainComputer::FindBestTarget (sparse-affinity gather)
//   full-k push   GainComputer::FindBestTargetPush (one accumulator scan)
//   grouped pull  GainComputer::MoveGain per sibling ≠ from
//   grouped push  GainComputer::FindBestTargetPushGroupedWindow over the
//                 group window, sliced once per vertex
//
// then adjusted for the §5(i) anchor penalty and, unless propose_nonpositive
// is set, dropped when its gain is ≤ 0. Exploration (full-k only) replaces
// the scan by a given random target with its true gain.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "graph/bipartite_graph.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"

namespace shp {

/// A vertex's move proposal: target and gain (anchor-adjusted,
/// nonpositive-filtered), or target = -1 for "no proposal".
struct Proposal {
  BucketId target = -1;
  double gain = 0.0;
  /// Computed from an exploration draw; it depends on the iteration, so a
  /// cache must not serve it next round.
  bool explored = false;
};

/// Reusable per-thread scratch of the full-k pull scan (sized and
/// zero-filled on first use; the scan restores it).
struct ProposalScratch {
  std::vector<double> affinity;
  std::vector<BucketId> touched;
};

/// Computes the proposals of one iteration. `EntriesOf` maps a query to its
/// neighbor-data entries (q -> std::span<const BucketCount>, bucket-sorted);
/// a null `sweep` selects the pull scan, otherwise the push scan reads its
/// accumulators. Holds references only: build one per iteration.
template <typename EntriesOf>
class ProposalKernel {
 public:
  ProposalKernel(const BipartiteGraph& graph, const GainComputer& gain,
                 EntriesOf entries_of, const AffinitySweep* sweep,
                 const MoveTopology& topo, const Partition& partition,
                 const std::vector<BucketId>* anchor, double anchor_penalty,
                 bool propose_nonpositive)
      : graph_(&graph),
        gain_(&gain),
        entries_of_(entries_of),
        sweep_(sweep),
        topo_(&topo),
        partition_(&partition),
        anchor_(anchor_penalty != 0.0 ? anchor : nullptr),
        anchor_penalty_(anchor_penalty),
        propose_nonpositive_(propose_nonpositive) {}

  bool push() const { return sweep_ != nullptr; }

  /// The same kernel on the pull scan: the Debug tolerance frame for push.
  ProposalKernel Pull() const {
    ProposalKernel pull = *this;
    pull.sweep_ = nullptr;
    return pull;
  }

  /// v's proposal. `explore_target` ≥ 0 makes a full-k round propose that
  /// bucket (unless it is v's own). `*work` grows by the BSP engine's work
  /// units for the scan: Σ_q |entries(q)| for full-k pull, 2·deg(v) per
  /// sibling for grouped pull, the accumulator entries read (plus the
  /// candidate count, grouped) for push.
  Proposal Compute(VertexId v, BucketId explore_target,
                   ProposalScratch* scratch, uint64_t* work) const {
    const uint64_t degree = graph_->DataDegree(v);
    if (degree == 0) return {};  // isolated: nothing to gain
    const BucketId from = partition_->bucket_of(v);
    const int32_t group = topo_->group_of_bucket[static_cast<size_t>(from)];
    if (group < 0) return {};  // bucket not refined at this level
    const double deg = static_cast<double>(degree);

    Proposal best;
    if (topo_->full_k) {
      if (explore_target >= 0 && explore_target != from) {
        best.target = explore_target;
        best.gain = push() ? gain_->MoveGainPush(*sweep_, v, from,
                                                 explore_target, deg)
                           : PullGain(v, explore_target);
        best.explored = true;
      } else if (push()) {
        *work += sweep_->Entries(v).size();
        const auto found =
            gain_->FindBestTargetPush(*sweep_, v, from, 0, topo_->k, deg);
        best.target = found.bucket;
        best.gain = found.gain;
      } else {
        if (scratch->affinity.size() < static_cast<size_t>(topo_->k)) {
          scratch->affinity.assign(static_cast<size_t>(topo_->k), 0.0);
        }
        const auto found = gain_->FindBestTarget(
            *graph_, entries_of_, v, from, 0, topo_->k, &scratch->affinity,
            &scratch->touched, work);
        best.target = found.bucket;
        best.gain = found.gain;
      }
    } else {
      const std::vector<BucketId>& children =
          topo_->group_children[static_cast<size_t>(group)];
      if (push()) {
        // One pass over the accumulator window spanning the siblings: a
        // re-slice of the same topology-free accumulators the full-k scan
        // reads, so recursion windows never rebuild them.
        const auto [begin, end] = topo_->GroupWindow(group);
        const auto window = sweep_->EntriesInWindow(v, begin, end);
        *work += window.size() + children.size();
        const auto found = gain_->FindBestTargetPushGroupedWindow(
            window, from, std::span<const BucketId>(children), deg);
        best.target = found.bucket;
        best.gain = found.gain;
      } else {
        // Each sibling evaluated directly against the neighbor data; the
        // first candidate wins ties.
        for (const BucketId candidate : children) {
          if (candidate == from) continue;
          *work += 2 * degree;
          const double g = PullGain(v, candidate);
          if (best.target < 0 || g > best.gain) {
            best.target = candidate;
            best.gain = g;
          }
        }
      }
    }
    if (best.target < 0) return {};

    // Incremental-update penalty (paper §5(i)).
    if (anchor_ != nullptr) {
      const BucketId home = (*anchor_)[v];
      if (from == home && best.target != home) best.gain -= anchor_penalty_;
      if (from != home && best.target == home) best.gain += anchor_penalty_;
    }
    if (!propose_nonpositive_ && best.gain <= 0.0) {
      return {-1, 0.0, best.explored};
    }
    return best;
  }

  /// Pull-frame gain of moving v from its bucket to `to`.
  double PullGain(VertexId v, BucketId to) const {
    return gain_->MoveGain(*graph_, entries_of_, v, partition_->bucket_of(v),
                           to);
  }

 private:
  const BipartiteGraph* graph_;
  const GainComputer* gain_;
  EntriesOf entries_of_;
  const AffinitySweep* sweep_;
  const MoveTopology* topo_;
  const Partition* partition_;
  const std::vector<BucketId>* anchor_;
  double anchor_penalty_;
  bool propose_nonpositive_;
};

/// What a cached proposal depends on besides the neighbor data: the
/// topology's groups, the anchor context and the scan direction. Capacity is
/// a broker concern; proposals do not depend on it.
class ProposalContext {
 public:
  /// True iff proposals cached under the last snapshot are valid under
  /// this context.
  bool ContextMatches(const MoveTopology& topo,
                      const std::vector<BucketId>* anchor,
                      double anchor_penalty, bool push) const;
  void SnapshotContext(const MoveTopology& topo,
                       const std::vector<BucketId>* anchor,
                       double anchor_penalty, bool push);

 private:
  MoveTopology topo_;
  bool has_topo_ = false;
  std::vector<BucketId> anchor_;
  bool has_anchor_ = false;
  double anchor_penalty_ = 0.0;
  bool push_ = false;
};

/// Debug cross-checks of an engine's proposal cache after superstep 2, over
/// every data vertex:
///  * each cached (target, gain) equals a fresh recompute bit for bit (the
///    cache-staleness guard: same code path over the same state);
///  * in push mode, each cached proposal matches a pull recompute within the
///    tolerance contract of docs/refinement.md — the same target or a
///    gain-tied one (≤ 1e-9 in the pull frame), gains within 1e-9 + rtol
///    1e-6, and a proposal present on one path only when both gains are
///    within that tolerance of zero.
/// `explore_target_of(v)` returns the iteration's exploration target (-1 for
/// none).
template <typename EntriesOf, typename ExploreTargetOf>
void CheckProposalCache(const ProposalKernel<EntriesOf>& kernel,
                        VertexId num_data,
                        const std::vector<BucketId>& targets,
                        const std::vector<double>& gains,
                        const ExploreTargetOf& explore_target_of,
                        ThreadPool* pool) {
  const ProposalKernel<EntriesOf> pull = kernel.Pull();
  pool->ParallelFor(num_data, [&](size_t begin, size_t end, size_t) {
    ProposalScratch scratch;
    uint64_t work = 0;
    for (size_t vi = begin; vi < end; ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const BucketId explore = explore_target_of(v);
      const BucketId target = targets[v];
      const double gain = gains[v];
      const Proposal fresh = kernel.Compute(v, explore, &scratch, &work);
      SHP_CHECK(fresh.target == target && fresh.gain == gain)
          << "stale cached proposal for v=" << v << ": cached (" << target
          << ", " << gain << ") vs fresh (" << fresh.target << ", "
          << fresh.gain << ")";
      if (!kernel.push()) continue;
      const Proposal ref = pull.Compute(v, explore, &scratch, &work);
      const double gtol =
          1e-9 + 1e-6 * std::max(std::fabs(ref.gain), std::fabs(gain));
      if (ref.target == target) {
        SHP_CHECK(std::fabs(ref.gain - gain) <= gtol)
            << "pull/push gain divergence for v=" << v << ": pull "
            << ref.gain << " vs push " << gain;
      } else if (ref.target >= 0 && target >= 0) {
        const double g_pull_choice = pull.PullGain(v, ref.target);
        const double g_push_choice = pull.PullGain(v, target);
        SHP_CHECK(std::fabs(g_pull_choice - g_push_choice) <= 1e-9)
            << "pull/push target divergence beyond tie tolerance for v=" << v
            << ": pull -> " << ref.target << " (" << g_pull_choice
            << ") vs push -> " << target << " (" << g_push_choice << ")";
      } else {
        SHP_CHECK(std::fabs(ref.gain) <= gtol && std::fabs(gain) <= gtol)
            << "pull/push proposal presence mismatch for v=" << v;
      }
    }
  });
}

}  // namespace shp
