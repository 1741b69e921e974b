#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

// Maps sparse raw ids to dense ids in order of first appearance.
class IdCompactor {
 public:
  uint32_t Map(uint64_t raw) {
    auto [it, inserted] = ids_.try_emplace(raw, next_);
    if (inserted) ++next_;
    return it->second;
  }
  uint32_t size() const { return next_; }

 private:
  std::unordered_map<uint64_t, uint32_t> ids_;
  uint32_t next_ = 0;
};

bool IsBlank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// Parses a non-negative decimal integer at *p; advances *p past it.
bool ParseUint(const char** p, const char* end, uint64_t* value) {
  const char* s = *p;
  if (s == end || *s < '0' || *s > '9') return false;
  uint64_t v = 0;
  while (s != end && *s >= '0' && *s <= '9') {
    const uint64_t digit = static_cast<uint64_t>(*s - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
    ++s;
  }
  *p = s;
  *value = v;
  return true;
}

uint64_t Fnv1a(const unsigned char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename T>
T LoadAt(std::string_view content, size_t offset) {
  T value;
  std::memcpy(&value, content.data() + offset, sizeof(T));
  return value;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Builds the query-major CSR from (query, data) pairs: merges duplicates
// and optionally drops queries with fewer than two distinct data vertices.
void BuildCsr(uint32_t num_queries, uint32_t num_data,
              const std::vector<std::pair<uint32_t, uint32_t>>& edges,
              bool drop_trivial, CheckGraph* graph) {
  std::vector<uint64_t> start(static_cast<size_t>(num_queries) + 1, 0);
  for (const auto& e : edges) ++start[e.first + 1];
  for (size_t q = 0; q < num_queries; ++q) start[q + 1] += start[q];
  std::vector<uint32_t> pins(edges.size());
  std::vector<uint64_t> cursor(start.begin(), start.end() - 1);
  for (const auto& e : edges) pins[cursor[e.first]++] = e.second;

  graph->num_data = num_data;
  graph->offsets.assign(1, 0);
  graph->pins.clear();
  graph->pins.reserve(pins.size());
  for (uint32_t q = 0; q < num_queries; ++q) {
    auto first = pins.begin() + static_cast<ptrdiff_t>(start[q]);
    auto last = pins.begin() + static_cast<ptrdiff_t>(start[q + 1]);
    std::sort(first, last);
    last = std::unique(first, last);
    if (drop_trivial && last - first < 2) continue;
    graph->pins.insert(graph->pins.end(), first, last);
    graph->offsets.push_back(graph->pins.size());
  }
}

}  // namespace

bool ReadFile(const std::string& path, std::string* content,
              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *content = std::move(buffer).str();
  return true;
}

bool ParseTextGraph(std::string_view content, bool drop_trivial,
                    CheckGraph* graph, std::string* error) {
  IdCompactor queries, data;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  const char* p = content.data();
  const char* const end = p + content.size();
  size_t line_number = 0;
  while (p < end) {
    const char* eol = static_cast<const char*>(std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (eol == nullptr) eol = end;
    ++line_number;
    if (p != eol && *p != '#' && *p != '%') {
      const char* s = p;
      uint64_t q = 0, d = 0;
      while (s < eol && IsBlank(*s)) ++s;
      bool ok = ParseUint(&s, eol, &q);
      const char* gap = s;
      while (s < eol && IsBlank(*s)) ++s;
      ok = ok && s != gap && ParseUint(&s, eol, &d);
      while (s < eol && IsBlank(*s)) ++s;
      if (!ok || s != eol) {
        *error = "text graph: malformed line " + std::to_string(line_number);
        return false;
      }
      edges.emplace_back(queries.Map(q), data.Map(d));
    }
    p = eol + 1;
  }
  if (edges.empty()) {
    *error = "text graph: no edges";
    return false;
  }
  BuildCsr(queries.size(), data.size(), edges, drop_trivial, graph);
  return true;
}

bool ParseShpgGraph(std::string_view content, CheckGraph* graph,
                    std::string* error) {
  constexpr size_t kHeader = 4 + 4 + 4 + 4 + 8;
  if (content.size() < kHeader + 8 || content.substr(0, 4) != "SHPG") {
    *error = "SHPG: bad magic or short file";
    return false;
  }
  const auto version = LoadAt<uint32_t>(content, 4);
  const uint64_t nq = LoadAt<uint32_t>(content, 8);
  const uint64_t nd = LoadAt<uint32_t>(content, 12);
  const auto ne = LoadAt<uint64_t>(content, 16);
  if (version != 1 || ne > content.size()) {
    *error = "SHPG: bad version or edge count";
    return false;
  }
  const uint64_t body = (nq + 1 + nd + 1) * 8 + 2 * ne * 4 + 8;
  if (body != content.size() - kHeader) {
    *error = "SHPG: header counts do not match the file size";
    return false;
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(content.data());
  const size_t payload_end = content.size() - 8;
  if (Fnv1a(bytes + 4, payload_end - 4) != LoadAt<uint64_t>(content, payload_end)) {
    *error = "SHPG: checksum mismatch";
    return false;
  }
  const size_t offsets_at = kHeader;
  const size_t adj_at = offsets_at + (nq + 1) * 8;
  graph->num_data = static_cast<uint32_t>(nd);
  graph->offsets.resize(nq + 1);
  std::memcpy(graph->offsets.data(), content.data() + offsets_at, (nq + 1) * 8);
  graph->pins.resize(ne);
  if (ne > 0) std::memcpy(graph->pins.data(), content.data() + adj_at, ne * 4);
  if (graph->offsets.front() != 0 || graph->offsets.back() != ne) {
    *error = "SHPG: inconsistent query offsets";
    return false;
  }
  for (uint64_t q = 0; q < nq; ++q) {
    if (graph->offsets[q + 1] < graph->offsets[q]) {
      *error = "SHPG: decreasing query offsets";
      return false;
    }
  }
  for (uint32_t d : graph->pins) {
    if (d >= nd) {
      *error = "SHPG: data id out of range";
      return false;
    }
  }
  return true;
}

bool ParsePartition(std::string_view content, std::vector<int64_t>* parts,
                    std::string* error) {
  parts->clear();
  const char* p = content.data();
  const char* const end = p + content.size();
  while (p < end) {
    const char* eol = static_cast<const char*>(std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (eol == nullptr) eol = end;
    if (p != eol && *p != '#' && *p != '%') {
      const char* s = p;
      const bool negative = *s == '-';
      if (negative) ++s;
      uint64_t value = 0;
      const bool ok = ParseUint(&s, eol, &value);
      while (s < eol && IsBlank(*s)) ++s;
      if (!ok || s != eol || value > (uint64_t{1} << 40)) {
        *error = "partition: malformed line " + std::to_string(parts->size() + 1);
        return false;
      }
      parts->push_back(negative ? -static_cast<int64_t>(value) : static_cast<int64_t>(value));
    }
    p = eol + 1;
  }
  return true;
}

double AverageFanout(const CheckGraph& graph, const std::vector<int64_t>& parts) {
  const uint32_t nq = graph.num_queries();
  if (nq == 0) return 0.0;
  int64_t k = 0;
  for (int64_t b : parts) k = std::max(k, b + 1);
  std::vector<uint32_t> seen(static_cast<size_t>(k), ~uint32_t{0});
  uint64_t total = 0;
  for (uint32_t q = 0; q < nq; ++q) {
    for (uint64_t i = graph.offsets[q]; i < graph.offsets[q + 1]; ++i) {
      uint32_t& mark = seen[static_cast<size_t>(parts[graph.pins[i]])];
      if (mark != q) {
        mark = q;
        ++total;
      }
    }
  }
  return static_cast<double>(total) / nq;
}

double RandomBalancedFanout(const CheckGraph& graph, int64_t k, uint64_t seed) {
  std::vector<uint32_t> order(graph.num_data);
  for (uint32_t v = 0; v < graph.num_data; ++v) order[v] = v;
  uint64_t state = seed;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[SplitMix64(&state) % i]);
  }
  std::vector<int64_t> parts(graph.num_data);
  for (size_t i = 0; i < order.size(); ++i) {
    parts[order[i]] = static_cast<int64_t>(i % static_cast<size_t>(k));
  }
  return AverageFanout(graph, parts);
}

uint64_t BucketCapacity(uint64_t n, int64_t k, double epsilon) {
  const double share = static_cast<double>(n) / static_cast<double>(k);
  const auto floor_cap = static_cast<uint64_t>(std::floor((1.0 + epsilon) * share));
  const uint64_t ceil_share = (n + static_cast<uint64_t>(k) - 1) / static_cast<uint64_t>(k);
  return std::max(floor_cap, ceil_share);
}

CheckReport CheckPartition(const CheckGraph& graph,
                           const std::vector<int64_t>& parts,
                           const CheckLimits& limits) {
  CheckReport report;
  if (parts.size() != graph.num_data) {
    report.error = "partition has " + std::to_string(parts.size()) +
                   " lines, graph has " + std::to_string(graph.num_data) +
                   " data vertices";
    return report;
  }
  std::vector<uint64_t> sizes(static_cast<size_t>(limits.k), 0);
  for (size_t v = 0; v < parts.size(); ++v) {
    if (parts[v] < 0 || parts[v] >= limits.k) {
      report.error = "bucket id " + std::to_string(parts[v]) + " of vertex " +
                     std::to_string(v) + " outside [0, k)";
      return report;
    }
    ++sizes[static_cast<size_t>(parts[v])];
  }
  report.max_bucket_size = *std::max_element(sizes.begin(), sizes.end());
  report.capacity = BucketCapacity(graph.num_data, limits.k, limits.epsilon);
  if (report.max_bucket_size > report.capacity) {
    report.error = "bucket of " + std::to_string(report.max_bucket_size) +
                   " vertices exceeds capacity " + std::to_string(report.capacity);
    return report;
  }
  report.fanout = AverageFanout(graph, parts);
  const double scale = std::max(std::abs(report.fanout), 1e-300);
  if (std::abs(report.fanout - limits.library_fanout) > limits.fanout_rtol * scale) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "recomputed fanout %.12f disagrees with library fanout %.12f",
                  report.fanout, limits.library_fanout);
    report.error = buf;
    return report;
  }
  report.random_fanout = RandomBalancedFanout(graph, limits.k, limits.random_seed);
  if (report.fanout > limits.max_share_of_random * report.random_fanout) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "fanout %.6f is not below %.2f x random fanout %.6f",
                  report.fanout, limits.max_share_of_random, report.random_fanout);
    report.error = buf;
    return report;
  }
  report.ok = true;
  return report;
}

namespace {

int Expect(bool condition, const char* what) {
  if (condition) return 0;
  std::fprintf(stderr, "checker self-test failed: %s\n", what);
  return 1;
}

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

// Serializes a query-major graph as SHPG, deriving the data-major half.
std::string MakeShpg(const CheckGraph& g) {
  const uint32_t nq = g.num_queries();
  const uint64_t ne = g.pins.size();
  std::vector<uint64_t> data_offsets(static_cast<size_t>(g.num_data) + 1, 0);
  for (uint32_t d : g.pins) ++data_offsets[d + 1];
  for (size_t d = 0; d < g.num_data; ++d) data_offsets[d + 1] += data_offsets[d];
  std::vector<uint32_t> data_adj(ne);
  std::vector<uint64_t> cursor(data_offsets.begin(), data_offsets.end() - 1);
  for (uint32_t q = 0; q < nq; ++q) {
    for (uint64_t i = g.offsets[q]; i < g.offsets[q + 1]; ++i) {
      data_adj[cursor[g.pins[i]]++] = q;
    }
  }
  std::string out = "SHPG";
  const uint32_t version = 1;
  AppendRaw(&out, &version, 4);
  AppendRaw(&out, &nq, 4);
  AppendRaw(&out, &g.num_data, 4);
  AppendRaw(&out, &ne, 8);
  AppendRaw(&out, g.offsets.data(), g.offsets.size() * 8);
  AppendRaw(&out, g.pins.data(), ne * 4);
  AppendRaw(&out, data_offsets.data(), data_offsets.size() * 8);
  AppendRaw(&out, data_adj.data(), ne * 4);
  const uint64_t checksum =
      Fnv1a(reinterpret_cast<const unsigned char*>(out.data()) + 4, out.size() - 4);
  AppendRaw(&out, &checksum, 8);
  return out;
}

}  // namespace

int RunCheckerSelfTest() {
  int failures = 0;
  std::string error;

  // Raw ids 10, 20, 30, 40 compact to data 0..3 in first-appearance order;
  // query 7 has one distinct data vertex and is dropped; "5 20" repeats.
  //   q5 = {d0, d1}, q6 = {d1, d2}, q8 = {d0, d2, d3}
  const char* text =
      "# hand-built\n"
      "5 10\n5 20\n5 20\n"
      "6 20\n6\t30\n"
      "7 40\n7 40\n"
      "% comment\n"
      "8 10\n8 30\n8 40\r\n";
  CheckGraph g;
  failures += Expect(ParseTextGraph(text, true, &g, &error), "parse text graph");
  failures += Expect(g.num_queries() == 3 && g.num_data == 4 && g.pins.size() == 7,
                     "text graph shape (3 queries, 4 data, 7 pins)");
  // Buckets {d0,d1} -> 0, {d2,d3} -> 1: fanouts 1, 2, 2.
  const std::vector<int64_t> split = {0, 0, 1, 1};
  failures += Expect(std::abs(AverageFanout(g, split) - 5.0 / 3.0) < 1e-15,
                     "fanout of the 2-bucket split is 5/3");
  failures += Expect(AverageFanout(g, {0, 0, 0, 0}) == 1.0, "single bucket fanout is 1");
  failures += Expect(std::abs(AverageFanout(g, {0, 1, 2, 3}) - 7.0 / 3.0) < 1e-15,
                     "singleton buckets give mean degree 7/3");

  CheckGraph kept;
  failures += Expect(ParseTextGraph(text, false, &kept, &error) && kept.num_queries() == 4 &&
                         std::abs(AverageFanout(kept, split) - 6.0 / 4.0) < 1e-15,
                     "keeping the trivial query averages over 4 queries");

  CheckLimits limits;
  limits.k = 2;
  limits.library_fanout = 5.0 / 3.0;
  limits.max_share_of_random = 10.0;
  failures += Expect(CheckPartition(g, split, limits).ok, "valid split passes");
  failures += Expect(!CheckPartition(g, {0, 0, 0, 1}, limits).ok, "3 of 4 in one bucket breaks capacity 2");
  failures += Expect(!CheckPartition(g, {0, 0, 1}, limits).ok, "short partition is rejected");
  failures += Expect(!CheckPartition(g, {0, 0, 1, 2}, limits).ok, "bucket id k is rejected");
  failures += Expect(!CheckPartition(g, {0, 0, -1, 1}, limits).ok, "negative bucket id is rejected");
  CheckLimits wrong = limits;
  wrong.library_fanout = 5.0 / 3.0 * (1 + 1e-8);
  failures += Expect(!CheckPartition(g, split, wrong).ok, "fanout disagreement is rejected");
  CheckLimits strict = limits;
  strict.max_share_of_random = 0.5;
  failures += Expect(!CheckPartition(g, split, strict).ok, "missing margin over random is rejected");

  failures += Expect(BucketCapacity(100, 8, 0.05) == 13, "capacity floor(1.05*12.5) = 13");
  failures += Expect(BucketCapacity(10, 4, 0.0) == 3, "capacity clamps to ceil(10/4) = 3");

  // Two disjoint 4-cliques of queries over 8 data vertices: the aligned
  // split has fanout 1, and every balanced 2-way split is worse.
  CheckGraph blocks;
  blocks.num_data = 8;
  for (uint32_t q = 0; q < 8; ++q) {
    const uint32_t base = q < 4 ? 0 : 4;
    for (uint32_t i = 0; i < 4; ++i) blocks.pins.push_back(base + i);
    blocks.offsets.push_back(blocks.pins.size());
  }
  const std::vector<int64_t> aligned = {0, 0, 0, 0, 1, 1, 1, 1};
  failures += Expect(AverageFanout(blocks, aligned) == 1.0, "aligned blocks have fanout 1");
  failures += Expect(RandomBalancedFanout(blocks, 2, 3) > 1.0, "random split of blocks is worse");
  CheckGraph round_trip;
  const std::string shpg = MakeShpg(blocks);
  failures += Expect(ParseShpgGraph(shpg, &round_trip, &error) &&
                         round_trip.pins == blocks.pins &&
                         round_trip.offsets == blocks.offsets && round_trip.num_data == 8,
                     "SHPG round trip");
  std::string corrupt = shpg;
  corrupt[40] ^= 1;
  failures += Expect(!ParseShpgGraph(corrupt, &round_trip, &error), "SHPG checksum catches a flipped bit");
  failures += Expect(!ParseShpgGraph(shpg.substr(0, shpg.size() - 4), &round_trip, &error),
                     "truncated SHPG is rejected");

  std::vector<int64_t> parts;
  failures += Expect(ParsePartition("# k=2\n0\n1\n1\n", &parts, &error) &&
                         parts == std::vector<int64_t>({0, 1, 1}),
                     "partition file parse");
  failures += Expect(!ParsePartition("0\nx\n", &parts, &error), "malformed partition line is rejected");
  failures += Expect(!ParseTextGraph("1 2 3\n", true, &g, &error), "three-column line is rejected");
  return failures;
}

}  // namespace perfbench
