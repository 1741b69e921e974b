// End-to-end partition benchmark driver: graph file in, partition file out.
//
//   perfbench gen --workload=W --seed=N --dir=D [--scale=1]
//       Generates the workload's input graph from the seed into D and writes
//       D/manifest.json (|Q|, |D|, pins, file bytes, FNV-1a of the file).
//       Runs in its own process so generation never reaches the timed
//       process's peak RSS.
//   perfbench run --workload=W --dir=D --out=O --seconds=S --trace=0|1
//       Repeats whole rounds (load -> partition -> write -> check) for S
//       seconds, and at least a warm-up round plus kMinRounds, and prints one
//       JSON line of medians over the rounds after the warm-up. --trace=1 alternates
//       untraced and traced rounds and reports the per-layer metrics.
//   perfbench verify --dir=D --seed=N [--scale=0.25]
//       Re-runs the engine and ingest equivalence guarantees on reduced
//       inputs: SHP-2 BSP vs threaded fanout within rtol 1e-4, spilled vs
//       in-memory assignments bit-identical.
//   perfbench selftest
//       Runs the independent checker's self-test.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "checker.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/env.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/recursive.h"
#include "core/shp.h"
#include "core/shp_k.h"
#include "engine/cost_model.h"
#include "engine/shp_bsp.h"
#include "graph/disk_arena.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "graph/graph_builder.h"
#include "graph/io_binary.h"
#include "graph/io_edgelist.h"
#include "graph/io_partition.h"
#include "graph/streaming_ingest.h"
#include "objective/affinity_sweep.h"
#include "objective/neighbor_data.h"
#include "objective/pow_table.h"
#include "trace.h"

namespace {

using namespace shp;  // NOLINT
namespace fs = std::filesystem;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// Fixed so that fanout repeats exactly: ThreadPool chunks statically, so a
// run's trajectory depends on the thread count and nothing else. One thread,
// because ThreadPool::ParallelFor with more than one worker can return while
// its last worker still uses the caller's stack-local mutex; that aborted
// about one 4-thread run in seven. With one worker it runs inline.
constexpr size_t kThreads = 1;
constexpr uint64_t kPartitionSeed = 1;
// Seeds the generators of the workload shapes; --seed relabels the shape.
constexpr uint64_t kShapeSeed = 1;
constexpr BucketId kBuckets = 32;
constexpr double kEpsilon = 0.05;
// Every run spends the whole iteration budget (SHP-k 60, SHP-2 20 per level)
// instead of stopping once few vertices move, so the work in a round does not
// hang on where a seed's graph happens to converge.
constexpr double kMinMoveFraction = 0.0;
// Rounds measured after the warm-up round, however short the run.
constexpr uint64_t kMinRounds = 3;
// At most this share of a traced round's wall time may lie outside every
// layer span, i.e. in the self time of the round's root span.
constexpr double kUncoveredTolerance = 0.01;

enum class Load { kText, kBinary, kStreaming };

struct Workload {
  const char* name;
  Load load;
  bool recursive;  ///< SHP-2 (RecursivePartitioner) instead of SHP-k
  bool bsp;        ///< BspRefiner engine instead of the threaded Refiner
  const char* file;
};

constexpr Workload kWorkloads[] = {
    {"shpk-text", Load::kText, false, false, "graph.txt"},
    {"shp2-bsp", Load::kBinary, true, true, "graph.shpg"},
    {"shp2-spilled", Load::kStreaming, true, false, "graph.shpg"},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return HashCombine(seed, salt, 0x9e3779b97f4a7c15ULL);
}

// The workload's graph shape, the same for every seed. `scale` shrinks it
// for the verification command.
BipartiteGraph MakeShape(const Workload& w, double scale) {
  if (w.load == Load::kBinary) {
    SocialGraphConfig config;
    config.num_users = static_cast<VertexId>(24000 * scale);
    config.avg_degree = 20.0;
    config.seed = Mix(kShapeSeed, 2);
    return GenerateSocialGraph(config);
  }
  PowerLawConfig config;
  config.num_queries = static_cast<VertexId>(36000 * scale);
  config.num_data = static_cast<VertexId>(72000 * scale);
  config.target_edges = static_cast<EdgeIndex>(360000 * scale);
  config.seed = Mix(kShapeSeed, w.load == Load::kText ? 1 : 3);
  return GeneratePowerLaw(config);
}

// The workload input for `seed`: the shape with its query ids and data ids
// shuffled by the seed. Every seed gets a different file and a different
// partitioner trajectory (ids drive the initial assignment and the per-vertex
// random streams), but the same amount of work, so a run's timings vary with
// the host and the code rather than with the size and skew of one draw.
BipartiteGraph MakeGraph(const Workload& w, uint64_t seed, double scale) {
  const BipartiteGraph shape = MakeShape(w, scale);
  Rng rng(Mix(seed, 4));
  std::vector<VertexId> query_id(shape.num_queries()), data_id(shape.num_data());
  std::iota(query_id.begin(), query_id.end(), VertexId{0});
  std::iota(data_id.begin(), data_id.end(), VertexId{0});
  std::shuffle(query_id.begin(), query_id.end(), rng);
  std::shuffle(data_id.begin(), data_id.end(), rng);
  GraphBuilder builder(shape.num_queries(), shape.num_data());
  for (VertexId q = 0; q < shape.num_queries(); ++q) {
    for (const VertexId v : shape.QueryNeighbors(q)) builder.AddEdge(query_id[q], data_id[v]);
  }
  return builder.Build();
}

StreamingIngestOptions SpillOptions(const std::string& spill_dir) {
  StreamingIngestOptions options;
  options.memory_budget_mb = 64;
  options.high_degree_factor = 1.0;
  options.spill_dir = spill_dir;
  // Split over the two arenas: four 128 KB windows each, well below the
  // spilled payload, so refinement keeps evicting and re-mapping windows.
  options.spill_cache_mb = 1;
  return options;
}

uint64_t FileChecksum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buffer(1 << 20);
  uint64_t hash = kFnv1a64Init;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    hash = Fnv1a64(buffer.data(), static_cast<size_t>(in.gcount()), hash);
  }
  return hash;
}

Status WriteInput(const Workload& w, const BipartiteGraph& graph,
                  const std::string& path) {
  return w.load == Load::kText ? WriteBipartiteEdgeList(graph, path)
                               : WriteBinaryGraph(graph, path);
}

int Generate(const Flags& flags) {
  const Workload* w = FindWorkload(flags.GetString("workload", ""));
  if (w == nullptr) return 2;
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const fs::path dir = flags.GetString("dir", "");
  fs::create_directories(dir);
  const BipartiteGraph graph = MakeGraph(*w, seed, flags.GetDouble("scale", 1.0));
  const std::string path = (dir / w->file).string();
  if (Status st = WriteInput(*w, graph, path); !st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  char manifest[512];
  std::snprintf(manifest, sizeof(manifest),
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"file\": \"%s\", \"num_queries\": %u, \"num_data\": %u, "
                "\"pins\": %" PRIu64 ", \"file_bytes\": %" PRIu64
                ", \"fnv1a64\": \"%016" PRIx64 "\"}\n",
                w->name, seed, w->file, graph.num_queries(), graph.num_data(),
                static_cast<uint64_t>(graph.num_edges()),
                static_cast<uint64_t>(fs::file_size(path)), FileChecksum(path));
  const fs::path tmp = dir / "manifest.json.tmp";
  std::ofstream(tmp) << manifest;
  fs::rename(tmp, dir / "manifest.json");
  std::fputs(manifest, stdout);
  return 0;
}

// ------------------------------------------------------------ engine ledger

struct IterationRecord {
  double seconds = 0.0;
  IterationStats stats;
};

// What the timing wrapper learns about one partition call.
struct EngineLedger {
  Tracer* tracer = nullptr;
  const char* layer = "core";
  std::vector<IterationRecord> iterations;
  uint32_t creates = 0;
  uint32_t levels = 0;
  double create_seconds = 0.0;
  uint64_t bootstrap_reships = 0;
  uint64_t max_worker_state_bytes = 0;
  std::vector<SuperstepStats> supersteps;
};

// Times every RunIteration of the engine the driver asked for and opens one
// span per recursion level; the wrapped engine runs the same trajectory.
class TimedRefiner : public RefinerInterface {
 public:
  TimedRefiner(std::unique_ptr<RefinerInterface> inner, const BspRefiner* bsp,
               EngineLedger* ledger)
      : inner_(std::move(inner)), bsp_(bsp), ledger_(ledger) {}
  ~TimedRefiner() override {
    if (bsp_ != nullptr) ledger_->bootstrap_reships += bsp_->num_bootstrap_reships();
  }
  TimedRefiner(const TimedRefiner&) = delete;
  TimedRefiner& operator=(const TimedRefiner&) = delete;

  IterationStats RunIteration(const MoveTopology& topo, Partition* partition,
                              uint64_t seed, uint64_t iteration,
                              ThreadPool* pool,
                              const std::vector<BucketId>* anchor,
                              double anchor_penalty) override {
    Tracer* tracer = ledger_->tracer;
    if (iteration == 0) {
      tracer->EndIfOpen("level");
      tracer->Begin("level", "core", "\"level\":" + std::to_string(ledger_->levels));
      ++ledger_->levels;
    }
    const uint32_t level = ledger_->levels - 1;
    const int span = tracer->Begin("RunIteration", ledger_->layer,
                                   "\"level\":" + std::to_string(level) +
                                       ",\"iteration\":" + std::to_string(iteration));
    Timer timer;
    const IterationStats stats = inner_->RunIteration(topo, partition, seed, iteration,
                                                      pool, anchor, anchor_penalty);
    const double seconds = timer.ElapsedSeconds();
    tracer->AddArgs(span, std::string("\"full_rebuild\":") +
                              (stats.full_rebuild ? "true" : "false"));
    tracer->End(span);
    ledger_->iterations.push_back({seconds, stats});
    return stats;
  }
  void SetMoveBudget(uint64_t max_moves) override { inner_->SetMoveBudget(max_moves); }

 private:
  std::unique_ptr<RefinerInterface> inner_;
  const BspRefiner* bsp_;
  EngineLedger* ledger_;
};

BspConfig BenchBspConfig() {
  BspConfig config;
  config.num_workers = 4;
  return config;
}

// The engine factory for a round: nothing (the driver's default threaded
// Refiner) when untraced and threaded, the BSP engine when the workload
// asks for it, and the timing wrapper around either when traced.
RefinerFactory MakeFactory(const Workload& w, EngineLedger* ledger) {
  if (ledger == nullptr && !w.bsp) return nullptr;
  const bool bsp = w.bsp;
  return [bsp, ledger](const BipartiteGraph& g,
                       const RefinerOptions& options) -> std::unique_ptr<RefinerInterface> {
    if (ledger == nullptr) {
      return std::make_unique<BspRefiner>(g, options, BenchBspConfig());
    }
    ledger->tracer->EndIfOpen("level");
    ScopedSpan span(ledger->tracer, "create_refiner", ledger->layer);
    Timer timer;
    std::unique_ptr<RefinerInterface> inner;
    const BspRefiner* bsp_refiner = nullptr;
    if (bsp) {
      auto engine = std::make_unique<BspRefiner>(g, options, BenchBspConfig(),
                                                 &ledger->supersteps);
      ledger->max_worker_state_bytes =
          std::max(ledger->max_worker_state_bytes, engine->MaxWorkerStateBytes());
      bsp_refiner = engine.get();
      inner = std::move(engine);
    } else {
      inner = std::make_unique<Refiner>(g, options);
    }
    ledger->create_seconds += timer.ElapsedSeconds();
    ++ledger->creates;
    return std::make_unique<TimedRefiner>(std::move(inner), bsp_refiner, ledger);
  };
}

std::vector<BucketId> RunPartitioner(const Workload& w, const BipartiteGraph& graph,
                                     ThreadPool* pool, EngineLedger* ledger) {
  if (w.recursive) {
    RecursiveOptions options;
    options.k = kBuckets;
    options.epsilon = kEpsilon;
    options.seed = kPartitionSeed;
    options.min_move_fraction = kMinMoveFraction;
    options.refiner_factory = MakeFactory(w, ledger);
    return RecursivePartitioner(options).Run(graph, pool).assignment;
  }
  ShpKOptions options;
  options.k = kBuckets;
  options.epsilon = kEpsilon;
  options.seed = kPartitionSeed;
  options.min_move_fraction = kMinMoveFraction;
  options.refiner_factory = MakeFactory(w, ledger);
  return ShpKPartitioner(options).Run(graph, pool).assignment;
}

// ------------------------------------------------------------------ rounds

using Metrics = std::map<std::string, double>;

struct RunPaths {
  std::string input;
  std::string partition;
  std::string spill_dir;
  uint64_t input_bytes = 0;
};

Result<BipartiteGraph> LoadGraph(const Workload& w, const RunPaths& paths,
                                 StreamingIngestStats* ingest) {
  switch (w.load) {
    case Load::kText:
      return ReadBipartiteEdgeList(paths.input);
    case Load::kBinary:
      return ReadBinaryGraph(paths.input);
    case Load::kStreaming:
      return StreamingIngestBinary(paths.input, SpillOptions(paths.spill_dir), ingest);
  }
  return Status::InvalidArgument("unknown load");
}

// The checker's view of the input, parsed by its own readers.
bool CheckerGraph(const Workload& w, const std::string& path,
                  perfbench::CheckGraph* graph, std::string* error) {
  std::string content;
  if (!perfbench::ReadFile(path, &content, error)) return false;
  return w.load == Load::kText
             ? perfbench::ParseTextGraph(content, /*drop_trivial=*/true, graph, error)
             : perfbench::ParseShpgGraph(content, graph, error);
}

struct RoundResult {
  bool ok = false;
  std::string error;
  uint64_t assignment_hash = 0;
  Metrics metrics;  ///< end-to-end metrics, plus per-layer ones when traced
};

void AddLedgerMetrics(const EngineLedger& ledger, const BipartiteGraph& graph,
                      double partition_s, Metrics* m) {
  double iter_s = 0.0, rebuild_s = 0.0;
  uint64_t rebuilds = 0, reverted = 0, recomputed = 0, moved = 0, proposals = 0,
           deltas = 0;
  std::vector<double> steady_ms;
  for (const IterationRecord& r : ledger.iterations) {
    iter_s += r.seconds;
    if (r.stats.full_rebuild) {
      ++rebuilds;
      rebuild_s += r.seconds;
    } else {
      steady_ms.push_back(r.seconds * 1e3);
    }
    reverted += r.stats.num_reverted;
    recomputed += r.stats.num_recomputed;
    moved += r.stats.num_moved;
    proposals += r.stats.num_proposals;
    deltas += r.stats.num_delta_records;
  }
  std::sort(steady_ms.begin(), steady_ms.end());
  const double n_iter = static_cast<double>(ledger.iterations.size());
  Metrics& out = *m;
  out["core.iterations"] = n_iter;
  out["core.levels"] = ledger.levels;
  out["core.refiner_creates"] = ledger.creates;
  out["core.rebuild_iters"] = static_cast<double>(rebuilds);
  out["core.reverted"] = static_cast<double>(reverted);
  out["core.refiner_create_s"] = ledger.create_seconds;
  out["core.rebuild_s"] = rebuild_s;
  out["core.steady_iter_ms"] =
      steady_ms.empty() ? 0.0 : steady_ms[steady_ms.size() / 2];
  out["core.other_s"] = partition_s - iter_s - ledger.create_seconds;
  out["core.recompute_frac"] =
      static_cast<double>(recomputed) / (n_iter * graph.num_data());
  out["core.move_yield"] =
      proposals == 0 ? 0.0 : static_cast<double>(moved) / static_cast<double>(proposals);
  out["objective.delta_records"] = static_cast<double>(deltas);

  RouteStats traffic;
  uint64_t envelope = 0, max_work = 0;
  for (const SuperstepStats& s : ledger.supersteps) {
    traffic += s.traffic;
    envelope += s.envelope_bytes;
    max_work += s.MaxWork();
  }
  out["engine.supersteps"] = static_cast<double>(ledger.supersteps.size());
  out["engine.remote_bytes"] = static_cast<double>(traffic.remote_bytes);
  out["engine.remote_messages"] = static_cast<double>(traffic.remote_messages);
  out["engine.envelope_bytes"] = static_cast<double>(envelope);
  out["engine.max_work_units"] = static_cast<double>(max_work);
  out["engine.bootstrap_reships"] = static_cast<double>(ledger.bootstrap_reships);
  out["engine.max_worker_state_mb"] =
      static_cast<double>(ledger.max_worker_state_bytes) / 1e6;
  out["engine.simulated_s"] =
      ledger.supersteps.empty()
          ? 0.0
          : CostModel(CostModelConfig{})
                .Total(ledger.supersteps, BenchBspConfig().num_workers)
                .seconds;
}

void AddGraphMetrics(const BipartiteGraph& graph, const StreamingIngestStats& ingest,
                     bool streamed, Metrics* m) {
  uint64_t touched = 0, evictions = 0;
  if (const HybridAdjacency* hybrid = graph.hybrid(); hybrid != nullptr) {
    for (const HybridAdjacency::Side* side : {&hybrid->query, &hybrid->data}) {
      if (side->spill == nullptr) continue;
      touched += side->spill->windows_touched();
      evictions += side->spill->window_evictions();
    }
  }
  Metrics& out = *m;
  out["graph.spilled_bytes"] = static_cast<double>(ingest.spilled_bytes);
  // In-memory loads keep both CSR directions: 4 bytes per pin and side.
  out["graph.resident_bytes"] =
      streamed ? static_cast<double>(ingest.resident_bytes)
               : 8.0 * static_cast<double>(graph.num_edges());
  out["graph.arena_windows_touched"] = static_cast<double>(touched);
  out["graph.arena_evictions"] = static_cast<double>(evictions);
}

// One round without its root span: load, partition, write, then check.
// Fills result->metrics; returns false with result->error on failure.
bool RoundBody(const Workload& w, const RunPaths& paths, ThreadPool* pool,
               Tracer* tracer, RoundResult* result) {
  Metrics& m = result->metrics;
  EngineLedger ledger;
  ledger.tracer = tracer;
  ledger.layer = w.bsp ? "engine" : "core";
  std::vector<BucketId> assignment;
  {
    // total_s: from opening the graph file to closing the partition file.
    Timer total;
    StreamingIngestStats ingest;
    Result<BipartiteGraph> loaded = [&] {
      ScopedSpan span(tracer, "load", "graph");
      Timer timer;
      Result<BipartiteGraph> graph = LoadGraph(w, paths, &ingest);
      m["setup_s"] = timer.ElapsedSeconds();
      return graph;
    }();
    if (!loaded.ok()) {
      result->error = "load: " + loaded.status().ToString();
      return false;
    }
    const BipartiteGraph& graph = loaded.value();
    if (w.load == Load::kStreaming &&
        (ingest.spilled_bytes == 0 || ingest.spill_cache_bytes >= ingest.spilled_bytes)) {
      result->error = "ingest did not spill past the residency cap";
      return false;
    }
    {
      ScopedSpan span(tracer, "partition", "core");
      Timer timer;
      assignment = RunPartitioner(w, graph, pool, tracer == nullptr ? nullptr : &ledger);
      if (tracer != nullptr) tracer->EndIfOpen("level");
      m["partition_s"] = timer.ElapsedSeconds();
    }
    {
      ScopedSpan span(tracer, "write_partition", "graph");
      Timer timer;
      const Status st = WritePartition(assignment, paths.partition);
      m["graph.write_partition_s"] = timer.ElapsedSeconds();
      if (!st.ok()) {
        result->error = "write: " + st.ToString();
        return false;
      }
    }
    m["total_s"] = total.ElapsedSeconds();

    {
      ScopedSpan span(tracer, "SummarizePartition", "objective");
      Timer timer;
      m["library_fanout"] = SummarizePartition(graph, assignment, kBuckets, 0.5, pool).fanout;
      m["objective.fanout_eval_ms"] = timer.ElapsedMillis();
    }
    if (tracer != nullptr) {
      m["graph.load_mb_per_s"] = static_cast<double>(paths.input_bytes) / m["setup_s"] / 1e6;
      AddGraphMetrics(graph, ingest, w.load == Load::kStreaming, &m);
      AddLedgerMetrics(ledger, graph, m["partition_s"], &m);
      QueryNeighborData ndata;
      {
        ScopedSpan span(tracer, "QueryNeighborData::Build", "objective");
        Timer timer;
        ndata.Build(graph, assignment, pool);
        m["objective.ndata_build_ms"] = timer.ElapsedMillis();
      }
      {
        ScopedSpan span(tracer, "AffinitySweep::Build", "objective");
        const PowTable pow(0.5, graph.MaxQueryDegree());
        AffinitySweep sweep;
        Timer timer;
        sweep.Build(graph, ndata, pow, pool);
        m["objective.sweep_build_ms"] = timer.ElapsedMillis();
      }
    }
  }
  result->assignment_hash =
      Fnv1a64(assignment.data(), assignment.size() * sizeof(BucketId), kFnv1a64Init);

  // The graph is gone; the checker reads both files with its own readers.
  ScopedSpan span(tracer, "check", "bench");
  perfbench::CheckGraph graph;
  std::string content, error;
  std::vector<int64_t> parts;
  if (!CheckerGraph(w, paths.input, &graph, &error) ||
      !perfbench::ReadFile(paths.partition, &content, &error) ||
      !perfbench::ParsePartition(content, &parts, &error)) {
    result->error = "check: " + error;
    return false;
  }
  perfbench::CheckLimits limits;
  limits.k = kBuckets;
  limits.epsilon = kEpsilon;
  limits.library_fanout = m["library_fanout"];
  const perfbench::CheckReport report = perfbench::CheckPartition(graph, parts, limits);
  if (!report.ok) {
    result->error = "check: " + report.error;
    return false;
  }
  m["fanout"] = report.fanout;
  m["random_fanout"] = report.random_fanout;
  return true;
}

RoundResult RunRound(const Workload& w, const RunPaths& paths, ThreadPool* pool,
                     Tracer* tracer) {
  RoundResult result;
  if (tracer == nullptr) {
    result.ok = RoundBody(w, paths, pool, nullptr, &result);
    return result;
  }
  Timer wall;
  const size_t first_span = tracer->spans().size();
  const int root = tracer->Begin("round", "bench",
                                 std::string("\"workload\":\"") + w.name + "\"");
  result.ok = RoundBody(w, paths, pool, tracer, &result);
  tracer->End(root);
  const double wall_s = wall.ElapsedSeconds();
  Metrics& m = result.metrics;
  for (const auto& [layer, seconds] : tracer->SelfSecondsByLayer(first_span)) {
    m[layer + ".self_s"] = seconds;
  }
  m["trace.wall_s"] = wall_s;
  m["trace.uncovered_frac"] = tracer->SelfSeconds(static_cast<size_t>(root)) / wall_s;
  return result;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Metrics MedianMetrics(const std::vector<Metrics>& rounds) {
  std::map<std::string, std::vector<double>> series;
  for (const Metrics& m : rounds) {
    for (const auto& [name, value] : m) series[name].push_back(value);
  }
  Metrics out;
  for (const auto& [name, values] : series) out[name] = Median(values);
  return out;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"total_s", "s"},       {"setup_s", "s"},         {"partition_s", "s"},
    {"fanout", "buckets/query"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.load_mb_per_s", "MB/s"},
    {"graph.spilled_bytes", "bytes"},
    {"graph.resident_bytes", "bytes"},
    {"graph.arena_windows_touched", "count"},
    {"graph.arena_evictions", "count"},
    {"graph.write_partition_s", "s"},
    {"objective.delta_records", "count"},
    {"objective.ndata_build_ms", "ms"},
    {"objective.sweep_build_ms", "ms"},
    {"objective.fanout_eval_ms", "ms"},
    {"core.iterations", "count"},
    {"core.levels", "count"},
    {"core.refiner_creates", "count"},
    {"core.rebuild_iters", "count"},
    {"core.reverted", "count"},
    {"core.refiner_create_s", "s"},
    {"core.rebuild_s", "s"},
    {"core.steady_iter_ms", "ms"},
    {"core.other_s", "s"},
    {"core.recompute_frac", "ratio"},
    {"core.move_yield", "ratio"},
    {"engine.supersteps", "count"},
    {"engine.remote_bytes", "bytes"},
    {"engine.remote_messages", "count"},
    {"engine.envelope_bytes", "bytes"},
    {"engine.max_work_units", "count"},
    {"engine.bootstrap_reships", "count"},
    {"engine.max_worker_state_mb", "MB"},
    {"engine.simulated_s", "s"},
    {"bench.self_s", "s"},
    {"graph.self_s", "s"},
    {"core.self_s", "s"},
    {"engine.self_s", "s"},
    {"objective.self_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.uncovered_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

std::string MetricsJson(const Metrics& values, bool traced) {
  std::string out = "{";
  auto emit = [&](const MetricSpec& spec) {
    const auto it = values.find(spec.name);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", spec.name,
                  it == values.end() ? 0.0 : it->second, spec.unit);
    out += buf;
  };
  if (traced) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  return out + "}";
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Run(const Flags& flags) {
  const Workload* w = FindWorkload(flags.GetString("workload", ""));
  if (w == nullptr) {
    std::fprintf(stderr, "run: unknown --workload\n");
    return 2;
  }
  const fs::path dir = flags.GetString("dir", "");
  const fs::path out = flags.GetString("out", "");
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  fs::create_directories(out);

  RunPaths paths;
  paths.input = (dir / w->file).string();
  paths.partition = (out / (std::string(w->name) + ".partition.txt")).string();
  paths.spill_dir = (out / "spill").string();
  std::error_code ec;
  paths.input_bytes = fs::file_size(paths.input, ec);
  if (ec) {
    std::fprintf(stderr, "run: no input %s\n", paths.input.c_str());
    return 1;
  }

  ThreadPool pool(kThreads);
  Tracer tracer;
  std::vector<Metrics> plain, traced;
  uint64_t attempted = 0, failed = 0;
  bool consistent = true;
  uint64_t first_hash = 0;
  Timer elapsed;
  // Whole rounds only. Round 0 warms the page cache, the allocator and the
  // pool up; it is checked but left out of the medians. A traced run then
  // alternates untraced and traced rounds, so the two halves measure the
  // tracing overhead on the same inputs.
  while (attempted < kMinRounds + 1 || elapsed.ElapsedSeconds() < seconds ||
         (trace && attempted % 2 == 0)) {
    const bool warm_up = attempted == 0;
    const bool traced_round = trace && !warm_up && attempted % 2 == 0;
    RoundResult round = RunRound(*w, paths, &pool, traced_round ? &tracer : nullptr);
    ++attempted;
    if (!round.ok) {
      ++failed;
      std::fprintf(stderr, "round %" PRIu64 " failed: %s\n", attempted, round.error.c_str());
      continue;
    }
    if (first_hash == 0) first_hash = round.assignment_hash;
    if (round.assignment_hash != first_hash) {
      consistent = false;
      std::fprintf(stderr, "round %" PRIu64 ": assignment differs from round 1\n", attempted);
    }
    if (traced_round && round.metrics["trace.uncovered_frac"] > kUncoveredTolerance) {
      consistent = false;
      std::fprintf(stderr, "round %" PRIu64 ": %.4f of wall time outside every layer span\n",
                   attempted, round.metrics["trace.uncovered_frac"]);
    }
    std::fprintf(stderr,
                 "round %" PRIu64 "%s total_s=%.4f setup_s=%.4f partition_s=%.4f "
                 "fanout=%.6f random_fanout=%.6f\n",
                 attempted, warm_up ? " (warm-up)" : traced_round ? " (traced)" : "",
                 round.metrics["total_s"], round.metrics["setup_s"],
                 round.metrics["partition_s"], round.metrics["fanout"],
                 round.metrics["random_fanout"]);
    if (!warm_up) (traced_round ? traced : plain).push_back(std::move(round.metrics));
  }

  Metrics report;
  if (trace) {
    report = MedianMetrics(traced);
    const double plain_total = MedianMetrics(plain)["total_s"];
    report["trace.overhead_frac"] =
        plain_total > 0.0 ? report["total_s"] / plain_total - 1.0 : 0.0;
    std::string layers = "{\"workload\": \"" + std::string(w->name) + "\", \"metrics\": " +
                         MetricsJson(report, true) + "}\n";
    const std::string stem = (out / w->name).string();
    if (!WriteText(stem + ".layers.json", layers) ||
        !tracer.WriteChromeTrace(stem + ".trace.json")) {
      std::fprintf(stderr, "run: cannot write trace files under %s\n", out.c_str());
      consistent = false;
    }
  } else {
    report = MedianMetrics(plain);
    report["peak_rss_mb"] = static_cast<double>(PeakRssBytes()) / 1e6;
  }
  const bool correct = failed == 0 && consistent && !plain.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(report, trace).c_str());
  return 0;
}

// ------------------------------------------------------------------ verify

int Verify(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const fs::path dir = flags.GetString("dir", "");
  const double scale = flags.GetDouble("scale", 0.25);
  fs::create_directories(dir);
  ThreadPool pool(kThreads);
  int failures = 0;

  // 1. BSP engine vs threaded engine on the same input and seed. The rtol
  // 1e-4 contract covers SHP-2. SHP-k is printed for information only: the
  // BSP engine does not implement exploration_probability, which SHP-k sets.
  const Workload& bsp = *FindWorkload("shp2-bsp");
  const std::string social = (dir / "verify_social.shpg").string();
  if (Status st = WriteInput(bsp, MakeGraph(bsp, seed, scale), social); !st.ok()) {
    std::fprintf(stderr, "verify: %s\n", st.ToString().c_str());
    return 1;
  }
  auto graph = ReadBinaryGraph(social);
  if (!graph.ok()) return 1;
  for (const bool recursive : {true, false}) {
    Workload threaded_w = bsp;
    threaded_w.bsp = false;
    threaded_w.recursive = recursive;
    Workload bsp_w = threaded_w;
    bsp_w.bsp = true;
    Timer threaded_timer;
    const std::vector<BucketId> threaded_parts =
        RunPartitioner(threaded_w, graph.value(), &pool, nullptr);
    const double threaded_s = threaded_timer.ElapsedSeconds();
    Timer bsp_timer;
    const std::vector<BucketId> bsp_parts = RunPartitioner(bsp_w, graph.value(), &pool, nullptr);
    const double bsp_s = bsp_timer.ElapsedSeconds();
    const double threaded = SummarizePartition(graph.value(), threaded_parts, kBuckets).fanout;
    const double distributed = SummarizePartition(graph.value(), bsp_parts, kBuckets).fanout;
    const double rtol = std::abs(distributed - threaded) / threaded;
    const bool ok = rtol <= 1e-4;
    if (recursive) failures += ok ? 0 : 1;
    std::printf("verify %s bsp-vs-threaded: pins=%" PRIu64 " threaded=%.6f (%.2f s) "
                "bsp=%.6f (%.2f s) rtol=%.3e %s\n",
                recursive ? "shp2" : "shpk", static_cast<uint64_t>(graph.value().num_edges()),
                threaded, threaded_s, distributed, bsp_s, rtol,
                !recursive ? "INFO" : ok ? "PASS" : "FAIL");
  }

  // 2. Spilled load vs in-memory load of the same snapshot.
  const Workload& spilled = *FindWorkload("shp2-spilled");
  const std::string snapshot = (dir / "verify_powerlaw.shpg").string();
  if (Status st = WriteInput(spilled, MakeGraph(spilled, seed, scale), snapshot); !st.ok()) {
    std::fprintf(stderr, "verify: %s\n", st.ToString().c_str());
    return 1;
  }
  auto in_memory = ReadBinaryGraph(snapshot);
  StreamingIngestStats stats;
  auto streamed =
      StreamingIngestBinary(snapshot, SpillOptions((dir / "spill").string()), &stats);
  if (!in_memory.ok() || !streamed.ok()) {
    std::fprintf(stderr, "verify: snapshot load failed: %s / %s\n",
                 in_memory.status().ToString().c_str(), streamed.status().ToString().c_str());
    return 1;
  }
  for (const bool recursive : {true, false}) {
    Workload w = spilled;
    w.recursive = recursive;
    const bool identical = RunPartitioner(w, in_memory.value(), &pool, nullptr) ==
                           RunPartitioner(w, streamed.value(), &pool, nullptr);
    const bool ok = identical && stats.spilled_bytes > 0;
    failures += ok ? 0 : 1;
    std::printf("verify %s spilled-vs-in-memory: spilled_bytes=%" PRIu64
                " identical=%d %s\n",
                recursive ? "shp2" : "shpk", stats.spilled_bytes, identical ? 1 : 0,
                ok ? "PASS" : "FAIL");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok() || parsed.value().positional().empty()) {
    std::fprintf(stderr, "usage: perfbench gen|run|verify|selftest --flag=value...\n");
    return 2;
  }
  const Flags& flags = parsed.value();
  // Library calls that get no pool fall back to GlobalThreadPool(), which
  // reads its size from this variable on first use.
  setenv("SHP_BENCH_THREADS", std::to_string(kThreads).c_str(), 1);
  const std::string& command = flags.positional()[0];
  if (command == "gen") return Generate(flags);
  if (command == "run") return Run(flags);
  if (command == "verify") return Verify(flags);
  if (command == "selftest") {
    const int failures = perfbench::RunCheckerSelfTest();
    std::printf("checker self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
  }
  std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
  return 2;
}
