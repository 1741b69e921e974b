// Golden trajectory test: bit-exact per-iteration fingerprints of both
// refinement engines over a fixed matrix of configurations.
//
// The other equivalence tests compare engines or scan directions to a
// tolerance. This one pins the exact trajectory: after every iteration it
// records a hash of the assignment, every IterationStats counter (doubles by
// bit pattern) and, for the BSP engine, each superstep's label, remote bytes
// and messages, envelope bytes and per-worker work units. The record is
// folded into one FNV-1a hash per iteration and compared with the committed
// table below. A refactor that claims "no behaviour change" must keep every
// entry; a change that alters a trajectory on purpose regenerates the table
// (run with SHP_GOLDEN_PRINT=1 to print it in source form) and says why.
//
// Determinism holds for a fixed thread count, so every case runs on its own
// explicit 3-thread pool.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/thread_pool.h"
#include "core/partition.h"
#include "core/refiner.h"
#include "engine/shp_bsp.h"
#include "graph/gen_social.h"

namespace shp {
namespace {

constexpr BucketId kK = 8;
constexpr uint64_t kIterations = 8;
constexpr uint64_t kSeed = 11;
constexpr size_t kThreads = 3;

const BipartiteGraph& Graph() {
  static const BipartiteGraph graph = [] {
    SocialGraphConfig config;
    config.num_users = 1000;
    config.avg_degree = 8;
    config.seed = 21;
    return GenerateSocialGraph(config);
  }();
  return graph;
}

/// Full k-way topology, or a grouped one that covers every scan shape: a
/// sparse group {0, 2} (the candidate-merge path), a contiguous group
/// {4..7} (the kernel path), and frozen buckets 1 and 3.
MoveTopology Topology(bool full_k) {
  const uint64_t n = Graph().num_data();
  return full_k ? MoveTopology::FullK(kK, n, 0.05)
                : MoveTopology::Grouped(kK, n, 0.05, {{0, 2}, {4, 5, 6, 7}});
}

enum class Engine { kThreaded, kBsp };

struct Case {
  std::string name;
  Engine engine = Engine::kThreaded;
  bool full_k = true;
  RefinerOptions options;
  int workers = 1;             ///< BSP only
  double anchor_penalty = 0.0;  ///< > 0: anchor = the initial assignment
  uint64_t move_budget = 0;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  const std::pair<MoveBrokerOptions::Strategy, const char*> strategies[] = {
      {MoveBrokerOptions::Strategy::kPlainProbability, "plain"},
      {MoveBrokerOptions::Strategy::kHistogramMatching, "histogram"},
      {MoveBrokerOptions::Strategy::kExactPairing, "exact"},
  };
  for (const auto& [strategy, strategy_name] : strategies) {
    for (const bool full_k : {true, false}) {
      Case c;
      c.name = std::string("threaded/") + strategy_name +
               (full_k ? "/fullk-explore" : "/grouped");
      c.full_k = full_k;
      c.options.broker.strategy = strategy;
      c.options.exploration_probability = full_k ? 0.05 : 0.0;
      cases.push_back(c);
    }
  }
  for (const int workers : {1, 3, 8}) {
    for (const bool push : {false, true}) {
      for (const bool full_k : {true, false}) {
        Case c;
        c.name = "bsp/w" + std::to_string(workers) +
                 (push ? "/push" : "/pull") +
                 (full_k ? "/fullk" : "/grouped");
        c.engine = Engine::kBsp;
        c.full_k = full_k;
        c.workers = workers;
        c.options.sweep_mode = push ? RefinerOptions::SweepMode::kAuto
                                    : RefinerOptions::SweepMode::kPull;
        cases.push_back(c);
      }
    }
  }
  for (const Engine engine : {Engine::kThreaded, Engine::kBsp}) {
    const std::string prefix =
        engine == Engine::kThreaded ? "threaded/" : "bsp/w3/";
    Case anchored;
    anchored.name = prefix + "anchor";
    anchored.engine = engine;
    anchored.workers = 3;
    anchored.anchor_penalty = 0.4;
    cases.push_back(anchored);
    Case budgeted;
    budgeted.name = prefix + "budget";
    budgeted.engine = engine;
    budgeted.workers = 3;
    budgeted.move_budget = 25;
    cases.push_back(budgeted);
  }
  return cases;
}

uint64_t HashBits(uint64_t h, const std::string& text) {
  return Fnv1a64(text.data(), text.size(), h);
}

/// One iteration's fingerprint as text (hashed for the table, printed on a
/// mismatch so the diverging field is visible).
std::string Record(const Partition& partition, const IterationStats& s,
                   const std::vector<SuperstepStats>& log, size_t log_begin) {
  const std::vector<BucketId>& a = partition.assignment();
  std::ostringstream out;
  out << "assignment=" << std::hex
      << Fnv1a64(a.data(), a.size() * sizeof(BucketId), kFnv1a64Init)
      << std::dec << " proposals=" << s.num_proposals
      << " moved=" << s.num_moved << " reverted=" << s.num_reverted
      << " gain_moved=" << std::hex << std::bit_cast<uint64_t>(s.gain_moved)
      << " moved_fraction=" << std::bit_cast<uint64_t>(s.moved_fraction)
      << std::dec << " full_rebuild=" << s.full_rebuild
      << " push=" << s.push_sweep << " recomputed=" << s.num_recomputed
      << " delta_records=" << s.num_delta_records
      << " draws=" << s.num_draws << " faults=" << s.faults_detected
      << " retransmits=" << s.retransmits
      << " reship_recoveries=" << s.reship_recoveries
      << " degraded_links=" << s.degraded_links
      << " workers_recovered=" << s.workers_recovered
      << " stalled=" << s.stalled_workers;
  for (size_t i = log_begin; i < log.size(); ++i) {
    const SuperstepStats& ss = log[i];
    out << "\n  [" << ss.label << "] remote_bytes=" << ss.traffic.remote_bytes
        << " remote_messages=" << ss.traffic.remote_messages
        << " envelope_bytes=" << ss.envelope_bytes << " work=";
    for (const uint64_t w : ss.work_units) out << w << ',';
  }
  return out.str();
}

/// Runs one case and returns its per-iteration records.
std::vector<std::string> RunCase(const Case& c) {
  const BipartiteGraph& g = Graph();
  ThreadPool pool(kThreads);
  std::vector<SuperstepStats> log;
  std::unique_ptr<RefinerInterface> refiner;
  if (c.engine == Engine::kThreaded) {
    refiner = std::make_unique<Refiner>(g, c.options);
  } else {
    BspConfig config;
    config.num_workers = c.workers;
    refiner = std::make_unique<BspRefiner>(g, c.options, config, &log);
  }
  if (c.move_budget > 0) refiner->SetMoveBudget(c.move_budget);
  const MoveTopology topo = Topology(c.full_k);
  Partition partition = Partition::BalancedRandom(g.num_data(), kK, 5);
  const std::vector<BucketId> anchor = partition.assignment();
  std::vector<std::string> records;
  for (uint64_t iter = 0; iter < kIterations; ++iter) {
    const size_t log_begin = log.size();
    const IterationStats stats = refiner->RunIteration(
        topo, &partition, kSeed, iter, &pool,
        c.anchor_penalty > 0.0 ? &anchor : nullptr, c.anchor_penalty);
    records.push_back(Record(partition, stats, log, log_begin));
  }
  return records;
}

struct Golden {
  const char* name;
  uint64_t hashes[kIterations];
};

// Regenerate with SHP_GOLDEN_PRINT=1 (the comparison still runs).
const std::vector<Golden> kGolden = {
    {"threaded/plain/fullk-explore",
     {0x56ccc1a4069b4751, 0x992f59e3a870aada,
      0xe5fc8224556b551b, 0x20c51220c8e8300a,
      0x49c8d3f008088920, 0x8a6de4b6f21ce12d,
      0xffac11b43cc9403a, 0xf5e4b9148b6da13d}},
    {"threaded/plain/grouped",
     {0x1d6f22669af102ce, 0x8627d192f9a06307,
      0xdf2d9d55662a5b66, 0x75ac520a2d8d7346,
      0xa8188a36e36a2418, 0xdd86e2f66cf9d92c,
      0x7b97ad15691f51c6, 0x5255717d758de02b}},
    {"threaded/histogram/fullk-explore",
     {0xea5eccdc1f339249, 0x266e024a8982e960,
      0x8ea78990ce169de3, 0x42a2f8e5bf081ac8,
      0xf0bb7f43d012cc02, 0xa6b6f3d142f755f2,
      0x6a67e0f502b59e5d, 0xfadb5e668a2cb2a8}},
    {"threaded/histogram/grouped",
     {0x4ade7d94acd13f86, 0xba1bc4db4cb9264c,
      0x444cf4980129704f, 0x936ef42f2086f755,
      0xed5a81d244c3c588, 0xeb264a336a63b639,
      0xe7662116452baa8d, 0x946b5dc6165733dc}},
    {"threaded/exact/fullk-explore",
     {0x001c1d9ee2a0e61e, 0xc99a518d50d44cc0,
      0x69a0bcfb2f7d05f5, 0x26fd1518540006ae,
      0x646e515c37d40c18, 0xb0868825b3bb8f73,
      0xd5fe47c0ce704ba0, 0x5dc27bdeaa2658ee}},
    {"threaded/exact/grouped",
     {0x7d7b7d79aa742bc0, 0xc4c5fa6756ffe9bb,
      0xdfde68a6c9fd20fd, 0xd714c4d729a7c27b,
      0x3ed720d396aa6bea, 0xa534720d6bb760e3,
      0xc126ee1b6af3ce25, 0x682e4ad28560dd83}},
    {"bsp/w1/pull/fullk",
     {0x9153a7651602ac22, 0xf780721fd129245d,
      0xa7d60e3aa9e80e86, 0x3af838f9cf81faff,
      0x02c5f63c33258a42, 0x075617f92cf8f5a0,
      0x8c152f5652bf18bc, 0x922a069c01f30999}},
    {"bsp/w1/pull/grouped",
     {0x3f7ec1c01cde48e0, 0xdea829681573f3ee,
      0x93516ed60c042651, 0xeec09ac4e9f404a5,
      0x631d88e8a57b833b, 0x297d4a24857c5e5d,
      0x2427bf28adad8475, 0xd515317bafe34f67}},
    {"bsp/w1/push/fullk",
     {0x56eb268fa3cbca1d, 0xf3bf0a77e2929d2f,
      0xac6ffb5fdbc55873, 0x1af9bcdc250ee303,
      0x0d3292ff3280679d, 0xf5cba4c13e66206b,
      0x6b5103256270a1ae, 0x5b6cb6ad6982b1dd}},
    {"bsp/w1/push/grouped",
     {0xbe7aedfd85640e82, 0x6f8bafeaa4ebb99a,
      0x755359ca70046b64, 0x0e18b7327e9bb151,
      0x7ffc2f76b22d93dd, 0x0eac9a74dcb61793,
      0xf8c5dff20f83d34d, 0xdc2c65db12489c7a}},
    {"bsp/w3/pull/fullk",
     {0x7b27ede99f5701ea, 0x9ac2bd86709e8e09,
      0x63e31be18ffd4796, 0x412ad6c9341fe8bb,
      0x404d9e45d8b1a006, 0x01c2393d244e12d6,
      0x6adcb1d67bcb0658, 0x46a07261cb64c7ba}},
    {"bsp/w3/pull/grouped",
     {0x6c92c96794ac4a15, 0xb671515f5175890f,
      0x852f817eaf1f2889, 0xbfd8d1f54e56d619,
      0x0637a111a38b1c20, 0xbafdf887e20ee809,
      0x1ba8a073190aa87c, 0xa5e418a4dd5677ea}},
    {"bsp/w3/push/fullk",
     {0xe45e5f4f0129ad83, 0xda9aa563e26b608b,
      0xebcbede78aeac322, 0x199ee18e74daaa29,
      0x92fa7477ad4c6c2c, 0x030d7cf2d33ee48e,
      0x2c22bcbdd6fbfbd1, 0x0ae24d519bb45720}},
    {"bsp/w3/push/grouped",
     {0x8db63bd13ff1bdf9, 0x9c2f9e1ecd5fcead,
      0xebd5e2c80661f771, 0x25403efb72b7d01d,
      0xdb6119162979e8a5, 0xc1aad4c1137c531a,
      0xa6afb37cd9bcbef2, 0x350e36e9bee12571}},
    {"bsp/w8/pull/fullk",
     {0x324c3b8849cb6ca3, 0x435d045e3c20c996,
      0xb2030cf2d8d48150, 0xecd8eece0cf5e5bf,
      0xfaba16855ced7696, 0x1daea27a5488d49d,
      0xdd5193c72bb1e238, 0x609213c8f6bd2c6b}},
    {"bsp/w8/pull/grouped",
     {0x87593437584e62ad, 0x8beb3fdd0d7cd8d9,
      0x958da2fb6b1860b2, 0x2b64a50e26bce16e,
      0x21fda6d9cc175814, 0xfeb497be0344a10a,
      0x0f76cb23c82298ed, 0x3c160cff0198a5e5}},
    {"bsp/w8/push/fullk",
     {0x930fa23bc9d42384, 0x895315903bcacebe,
      0x1216668b243011cc, 0x7e8f01245009f5a5,
      0x0c742e6a893f3e7c, 0xbd6ec015119b6bd0,
      0x1b41be01abeac5a9, 0x49928436b877fdcb}},
    {"bsp/w8/push/grouped",
     {0xe2d85b661748cb8a, 0x5e1ba1d0ae910454,
      0x282025368ee2d302, 0xe429f3fb55fb03d6,
      0x4ff015da90227207, 0xd310260c4d39e141,
      0x1bbcd5bfb90eb35f, 0x8489548138d9d80b}},
    {"threaded/anchor",
     {0x4de02d3db14dc0b8, 0x8ae8bb0ee7a575b9,
      0x5a948dd53904201e, 0x89d1260e94969b16,
      0xb7a008ba322f5efd, 0x52aacebca53a344a,
      0xcf4b4fbad1578ff5, 0x6bfe24c716912b64}},
    {"threaded/budget",
     {0x579c0dd4edf4bf4c, 0xbb7ede1c50994110,
      0xefbb125e30709d95, 0x1228870f2cd83bcf,
      0x6399a51a5703c645, 0x8dbcbab90c1d0719,
      0x40785db40354ffb7, 0x40785db40354ffb7}},
    {"bsp/w3/anchor",
     {0xf5a1e9de841d5140, 0x293a9505c1e46d7c,
      0xd4616b3b01a5b932, 0x8a21f11c883654a2,
      0xecdaf16b5c5e1a15, 0x0f08f476fc51814a,
      0xe17061b310b971b1, 0x14465dc238dd5015}},
    {"bsp/w3/budget",
     {0x472fb1f531f87a35, 0xbeab77851cbc06a2,
      0x8ec32def3672e843, 0x7cd09ab59143c0de,
      0x438ed081180fc787, 0xe4dd9d5b52b81ad1,
      0xd9d507bcd9842c3b, 0xd9d507bcd9842c3b}},
};

TEST(TrajectoryGolden, BothEnginesMatchCommittedFingerprints) {
  const bool print = std::getenv("SHP_GOLDEN_PRINT") != nullptr;
  const std::vector<Case> cases = Cases();
  EXPECT_EQ(kGolden.size(), cases.size())
      << "golden table and case matrix disagree; regenerate the table";
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    SCOPED_TRACE(c.name);
    const std::vector<std::string> records = RunCase(c);
    const bool listed = ci < kGolden.size() && c.name == kGolden[ci].name;
    EXPECT_TRUE(listed) << "case missing from the golden table";
    if (print) std::printf("    {\"%s\",\n     {", c.name.c_str());
    for (uint64_t iter = 0; iter < kIterations; ++iter) {
      const uint64_t h = HashBits(kFnv1a64Init, records[iter]);
      if (print) {
        std::printf("0x%016" PRIx64 "%s", h,
                    iter + 1 < kIterations
                        ? (iter % 2 == 1 ? ",\n      " : ", ")
                        : "}},\n");
      }
      if (!listed) continue;
      EXPECT_EQ(kGolden[ci].hashes[iter], h)
          << "iteration " << iter << " diverged; its record:\n"
          << records[iter];
    }
  }
}

}  // namespace
}  // namespace shp
