// Independent output checker for the end-to-end partition benchmark.
//
// Nothing here includes the library: the graph readers below follow the
// file layouts documented in src/graph/io_edgelist.h and src/graph/io_binary.h
// from scratch, so a fault in the library's own readers or objective code
// cannot hide itself by also corrupting the check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Query-major hypergraph: pins[offsets[q] .. offsets[q+1]) are the distinct
/// data vertices of query q.
struct CheckGraph {
  uint32_t num_data = 0;
  std::vector<uint64_t> offsets{0};
  std::vector<uint32_t> pins;

  uint32_t num_queries() const {
    return static_cast<uint32_t>(offsets.size() - 1);
  }
};

/// Parses a "query data" text edge list ('#'/'%' comment lines). Ids are
/// compacted per side in order of first appearance, duplicate pairs are
/// merged, and with `drop_trivial` queries with fewer than two distinct data
/// vertices are dropped (data ids are never renumbered).
bool ParseTextGraph(std::string_view content, bool drop_trivial,
                    CheckGraph* graph, std::string* error);

/// Parses an SHPG snapshot: "SHPG" | version u32 (= 1) | |Q| u32 | |D| u32 |
/// |E| u64 | query offsets u64[|Q|+1] | query adj u32[|E|] | data offsets
/// u64[|D|+1] | data adj u32[|E|] | FNV-1a-64 of everything after the magic.
bool ParseShpgGraph(std::string_view content, CheckGraph* graph,
                    std::string* error);

/// Parses a partition file: one bucket id per line, '#'/'%' comments.
bool ParsePartition(std::string_view content, std::vector<int64_t>* parts,
                    std::string* error);

/// Reads a whole file into *content.
bool ReadFile(const std::string& path, std::string* content,
              std::string* error);

/// Average number of distinct buckets per query.
double AverageFanout(const CheckGraph& graph, const std::vector<int64_t>& parts);

/// Fanout of the balanced random assignment the partition must beat: the
/// data vertices in a seeded random order, dealt round-robin over k buckets.
double RandomBalancedFanout(const CheckGraph& graph, int64_t k, uint64_t seed);

struct CheckLimits {
  int64_t k = 2;
  double epsilon = 0.05;
  /// Fanout the library reported (SummarizePartition); must agree with the
  /// recomputed one to `fanout_rtol`.
  double library_fanout = 0.0;
  double fanout_rtol = 1e-9;
  /// The partition's fanout must be at most this share of the random one.
  double max_share_of_random = 0.9;
  uint64_t random_seed = 1;
};

struct CheckReport {
  bool ok = false;
  std::string error;
  double fanout = 0.0;
  double random_fanout = 0.0;
  uint64_t max_bucket_size = 0;
  uint64_t capacity = 0;
};

/// floor((1+ε)·n/k), clamped below by ceil(n/k).
uint64_t BucketCapacity(uint64_t n, int64_t k, double epsilon);

/// Checks size, id range, balance, fanout agreement and the margin over a
/// random assignment.
CheckReport CheckPartition(const CheckGraph& graph,
                           const std::vector<int64_t>& parts,
                           const CheckLimits& limits);

/// Checks the checker on hand-built graphs whose fanout is known by hand.
/// Prints each failure to stderr and returns the number of failures.
int RunCheckerSelfTest();

}  // namespace perfbench
