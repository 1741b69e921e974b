// The move broker is the "master" of paper Fig. 3 supersteps 3-4: it
// aggregates per-vertex move proposals, computes per-pair move
// probabilities, and executes the simultaneous probabilistic moves.
//
// Two strategies:
//  * kPlainProbability — Algorithm 1 verbatim: only positive-gain proposals
//    count; probability for direction (i→j) is min(S_ij, S_ji)/S_ij.
//  * kHistogramMatching — the §3.4 production scheme: per-pair signed gain
//    histograms matched top-down, so the highest gains move first and
//    positive/negative bins can pair when their sum is positive.
//
// Both preserve balance in expectation; a deterministic post-move repair
// pass reverts the lowest-gain surplus moves of any bucket that exceeded
// its hard capacity, so the ε constraint is never violated (the paper runs
// with ε = 0.05 slack absorbing stochastic fluctuations; we enforce it).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "core/gain_histogram.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "graph/bipartite_graph.h"

namespace shp {

class ThreadPool;

struct MoveBrokerOptions {
  enum class Strategy {
    kPlainProbability,   ///< Algorithm 1 verbatim
    kHistogramMatching,  ///< §3.4 distributed scheme (default)
    /// §3.4's "ideal serial implementation": per bucket pair, two queues of
    /// vertices sorted by gain, paired off highest-to-lowest while the pair
    /// sum stays positive. Exact (no binning loss) and exactly
    /// balance-preserving, but inherently centralized — usable only
    /// single-machine; kept as the quality reference the histogram scheme
    /// approximates.
    kExactPairing,
  };
  Strategy strategy = Strategy::kHistogramMatching;
  GainBinning binning;
  /// Multiplies every move probability; <1 damps movement (used by
  /// incremental repartitioning, paper §5(i)).
  double probability_damping = 1.0;
  /// Ceiling on any per-vertex move probability. Strictly below 1 so that
  /// fully matched symmetric demands do not all execute simultaneously —
  /// with probability exactly 1 a matched bucket pair swaps its entire
  /// populations, which merely relabels the buckets and oscillates forever
  /// (visible on the paper's Fig. 2 example). A 0.9 cap breaks the symmetry
  /// while keeping expected flow balanced.
  double max_move_probability = 0.9;
  /// §3.4 "imbalanced swaps": also move unmatched positive-gain vertices
  /// into buckets with spare capacity (histogram strategy only).
  bool use_capacity_slack = true;
  /// Superstep-4 draw floor: proposals whose (from, target) probability row
  /// is all zero skip the per-vertex draw — a zero probability can never
  /// fire, so the move trajectory is identical and the steady-state
  /// O(#proposals) draw scan shrinks to the pairs the master actually
  /// matched. false restores the draw-everything reference (the regression
  /// test compares the two trajectories).
  bool skip_zero_probability_pairs = true;
  /// Ceiling on executed moves per round; 0 = unlimited. The online
  /// repartitioning stability knob (paper §5(i) alongside damping): when a
  /// round's drawn movers exceed the budget, the highest-gain movers are
  /// kept (deterministic tie-break on vertex id) and the rest stay put, so
  /// a serving tier migrates at a bounded rate per epoch. Enforced by all
  /// three strategies and by the BSP master; post-repair executed moves
  /// never exceed the budget (balance reversions only shrink the set).
  uint64_t max_moves_per_round = 0;
};

struct MoveOutcome {
  uint64_t num_proposals = 0;  ///< vertices with a valid target
  uint64_t num_moved = 0;      ///< moves that stuck (after repair)
  uint64_t num_reverted = 0;   ///< repair reversions
  /// Probability draws evaluated (≤ num_proposals once the draw floor
  /// skips all-zero probability rows; kExactPairing draws nothing).
  uint64_t num_draws = 0;
  double gain_moved = 0.0;     ///< Σ gains of surviving moves
  /// Net executed moves of the round (post balance-repair; a reverted vertex
  /// does not appear), ascending by vertex id. This is exactly the partition
  /// delta: incremental neighbor-data maintenance consumes it directly, and
  /// QueryNeighborData::ApplyMoves expands it into the per-query
  /// NeighborDelta records that patch the query-major affinity sweep.
  std::vector<VertexMove> moves;
};

/// Master-side state: per directed bucket pair (packed (from << 32) | to),
/// per-gain-bin move probabilities.
struct PairProbabilityTable {
  std::unordered_map<uint64_t, std::vector<double>> probabilities;

  /// Probability for a proposal (from, to, gain); 0 if the pair is unknown.
  double Lookup(const GainBinning& binning, BucketId from, BucketId to,
                double gain) const;

  /// Keys of pairs whose probability row holds any positive entry — the
  /// superstep-4 draw floor's support set. A proposal on any other pair
  /// draws against probability 0 in every bin, so its draw can never fire
  /// and is skipped without changing the move trajectory.
  std::unordered_set<uint64_t> LivePairKeys() const;
};

/// Each data vertex's current superstep-3 histogram contribution (pair key
/// and gain bin). One n-sized set per engine, shared by all of that
/// engine's PairHistograms: a vertex contributes to at most one of them.
struct HistogramContributions {
  static constexpr uint64_t kNoPair = ~0ull;  ///< not contributing
  std::vector<uint64_t> pair;
  std::vector<int32_t> bin;

  void Reset(size_t n) {
    pair.assign(n, kNoPair);
    bin.assign(n, 0);
  }
};

/// The superstep-3 master state under histogram matching: directed gain
/// histograms per bucket pair (packed (from << 32) | to), kept across rounds
/// and patched per changed proposal — two counter updates instead of a term
/// in an O(n) re-accumulation. Emptied pairs are dropped at once, so pairs()
/// holds exactly the live ones. The threaded MoveBroker keeps one; the BSP
/// engine keeps one per worker (each worker uploads its own) and merges
/// them at the master.
class PairHistograms {
 public:
  struct Pair {
    DirectedGainHistogram hist;
    uint64_t total = 0;  ///< proposals counted in hist
  };
  using Map = std::unordered_map<uint64_t, Pair>;

  explicit PairHistograms(const GainBinning& binning) : binning_(binning) {}

  const Map& pairs() const { return pairs_; }
  uint64_t num_proposals() const { return num_proposals_; }

  /// Re-derives v's contribution from its proposal (targets[v] < 0: none):
  /// removes the one recorded in *last and adds the current one.
  /// Idempotent, so a vertex may be listed twice.
  void Update(VertexId v, const std::vector<BucketId>& targets,
              const std::vector<double>& gains, const Partition& partition,
              HistogramContributions* last);

  /// Drops every pair and re-accumulates the contributions of `vertices`.
  template <typename Vertices>
  void Rebuild(const Vertices& vertices, const std::vector<BucketId>& targets,
               const std::vector<double>& gains, const Partition& partition,
               HistogramContributions* last) {
    pairs_.clear();
    num_proposals_ = 0;
    for (const VertexId v : vertices) {
      last->pair[v] = HistogramContributions::kNoPair;
      Update(v, targets, gains, partition, last);
    }
  }

  /// Adds another instance's counts (the BSP master merging the uploads).
  void Merge(const PairHistograms& other);

  /// Debug cross-check: the patched histograms must equal a from-scratch
  /// accumulation of the current proposals of `vertices`.
  template <typename Vertices>
  void CheckAgainstRebuild(const Vertices& vertices,
                           const std::vector<BucketId>& targets,
                           const std::vector<double>& gains,
                           const Partition& partition) const {
    PairHistograms fresh(binning_);
    HistogramContributions scratch;
    scratch.Reset(targets.size());
    fresh.Rebuild(vertices, targets, gains, partition, &scratch);
    SHP_CHECK_EQ(fresh.num_proposals_, num_proposals_);
    SHP_CHECK_EQ(fresh.pairs_.size(), pairs_.size());
    for (const auto& [key, pair] : fresh.pairs_) {
      const auto it = pairs_.find(key);
      SHP_CHECK(it != pairs_.end() && it->second.hist.counts == pair.hist.counts)
          << "incremental histogram diverged from full accumulation (pair "
          << (key >> 32) << "->" << (key & 0xffffffffULL) << ")";
    }
  }

 private:
  GainBinning binning_;
  Map pairs_;
  uint64_t num_proposals_ = 0;
};

/// The master computation of supersteps 3-4 under histogram matching:
/// matches the two directed histograms of every bucket pair and (optionally)
/// spends spare capacity on unmatched positive bins (§3.4 imbalanced swaps).
/// Shared between the threaded MoveBroker and the BSP master.
PairProbabilityTable ComputePairProbabilities(
    const MoveTopology& topo, const GainBinning& binning,
    const PairHistograms::Map& histograms, const Partition& partition,
    bool use_capacity_slack);

class MoveBroker {
 public:
  explicit MoveBroker(MoveBrokerOptions options)
      : options_(options), hist_(options.binning) {}

  const MoveBrokerOptions& options() const { return options_; }

  /// Adjusts the per-round move budget between rounds (the serving loop
  /// passes its remaining epoch budget before every iteration). 0 =
  /// unlimited. Does not disturb the incremental histogram state.
  void set_max_moves_per_round(uint64_t max_moves) {
    options_.max_moves_per_round = max_moves;
  }

  /// Executes one move round. targets[v] = proposed bucket (or -1);
  /// gains[v] = proposal gain (improvement; may be ≤ 0 under histogram
  /// matching). Deterministic in (seed, iteration) for a fixed thread count.
  ///
  /// `changed`, if non-null, is the compact changed-proposal list: every
  /// vertex whose (current bucket, target, gain) differs from the previous
  /// Apply call on this broker must be listed (duplicates are fine — the
  /// update is idempotent). Under kHistogramMatching the broker then patches
  /// its persistent per-pair histograms in O(|changed|) instead of
  /// re-accumulating the n-sized targets/gains arrays; the move trajectory
  /// is identical (Debug builds verify against a from-scratch accumulation).
  /// nullptr (the default, and the only mode the other strategies use)
  /// rebuilds from scratch and re-primes the incremental state.
  MoveOutcome Apply(const MoveTopology& topo,
                    const std::vector<BucketId>& targets,
                    const std::vector<double>& gains, uint64_t seed,
                    uint64_t iteration, Partition* partition,
                    ThreadPool* pool = nullptr,
                    const std::vector<VertexId>* changed = nullptr);

  /// Trims a drawn mover list to `budget` vertices (0 = unlimited): keeps
  /// the highest gains, ties broken on the lower vertex id, and restores
  /// ascending-by-vertex order on return. Deterministic for a fixed input.
  static void TrimToBudget(uint64_t budget, const std::vector<double>& gains,
                           std::vector<VertexId>* movers);

  /// Executes a round's drawn movers (ascending by vertex id): trims them to
  /// `budget` (TrimToBudget), moves each to targets[v], reverts the
  /// lowest-gain surplus arrivals of over-capacity buckets and emits the net
  /// moves into outcome->moves. `original` is n-sized scratch of which only
  /// the movers' slots are written and read. Shared by the drawing
  /// strategies and the BSP master's superstep 4.
  static void ExecuteMoves(const MoveTopology& topo, uint64_t budget,
                           const std::vector<BucketId>& targets,
                           const std::vector<double>& gains,
                           std::vector<VertexId>* movers,
                           std::vector<BucketId>* original,
                           Partition* partition, MoveOutcome* outcome);

  /// The superstep-4 draw of the histogram strategy for one round, shared
  /// with the BSP master.
  class HistogramDraw {
   public:
    HistogramDraw(const MoveBrokerOptions& options,
                  const PairProbabilityTable& table, uint64_t seed,
                  uint64_t iteration);

    /// Whether vertex v, proposing `from` -> `target` with `gain`, moves.
    /// Draw floor: a proposal whose pair row is all zero can never fire, so
    /// it is skipped without a draw (the trajectory is unchanged). Every
    /// other proposal adds one to *draws and draws against its matched
    /// probability on the hash of (seed, iteration, v) — a pure function,
    /// so the outcome does not depend on which worker draws.
    bool Moves(VertexId v, BucketId from, BucketId target, double gain,
               uint64_t* draws) const;

   private:
    const MoveBrokerOptions& options_;
    const PairProbabilityTable& table_;
    std::unordered_set<uint64_t> live_pairs_;
    uint64_t seed_;
    uint64_t iteration_;
  };

 private:
  MoveOutcome ApplyPlain(const MoveTopology& topo,
                         const std::vector<BucketId>& targets,
                         const std::vector<double>& gains, uint64_t seed,
                         uint64_t iteration, Partition* partition,
                         ThreadPool* pool);
  MoveOutcome ApplyHistogram(const MoveTopology& topo,
                             const std::vector<BucketId>& targets,
                             const std::vector<double>& gains, uint64_t seed,
                             uint64_t iteration, Partition* partition,
                             ThreadPool* pool,
                             const std::vector<VertexId>* changed);
  MoveOutcome ApplyExactPairing(const MoveTopology& topo,
                                const std::vector<BucketId>& targets,
                                const std::vector<double>& gains,
                                uint64_t seed, uint64_t iteration,
                                Partition* partition);

  /// Reverts lowest-gain surplus moves of over-capacity buckets until every
  /// bucket fits its capacity (or nothing is left to revert).
  static void RepairBalance(const MoveTopology& topo,
                            const std::vector<VertexId>& moved,
                            const std::vector<BucketId>& original_bucket,
                            const std::vector<double>& gains,
                            Partition* partition, MoveOutcome* outcome);

  /// Emits the net executed moves (vertices whose post-repair bucket differs
  /// from their pre-round bucket) into outcome->moves, ascending by vertex
  /// id.
  static void CollectNetMoves(const std::vector<VertexId>& moved,
                              const std::vector<BucketId>& original_bucket,
                              const Partition& partition,
                              MoveOutcome* outcome);

  MoveBrokerOptions options_;

  // Incrementally maintained kHistogramMatching master state (valid while
  // the caller keeps handing in changed-proposal lists).
  PairHistograms hist_;
  HistogramContributions contributions_;
  bool hist_valid_ = false;
  std::vector<BucketId> original_;  ///< ExecuteMoves scratch
};

}  // namespace shp
