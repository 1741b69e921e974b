// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed on the driver thread, around calls into the
// library's layers, so they nest as a stack: each span's parent is the span
// open when it began. They stay in memory until the run ends and are then
// written as a Chrome trace-event file (opens offline in Perfetto or
// chrome://tracing) and folded into per-layer self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;  ///< bench | graph | core | engine | objective
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;    ///< index into Tracer::spans(), -1 for a root
  std::string args;   ///< JSON object body, e.g. "\"level\":0"
};

class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name, const std::string& layer,
            std::string args = {});
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);
  /// Closes the innermost open span if it is named `name`.
  void EndIfOpen(const std::string& name);
  /// Appends to the args of an open or closed span.
  void AddArgs(int id, const std::string& args);

  double Now() const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of closed span `id` minus the time covered by its children.
  double SelfSeconds(size_t id) const;
  /// Self time summed per layer, over the spans with index >= `first`.
  std::map<std::string, double> SelfSecondsByLayer(size_t first = 0) const;

  /// Writes every span as a Chrome trace-event JSON array ("X" events in
  /// microseconds on one thread track, the layer as the category).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Closes its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, const std::string& layer,
             std::string args = {})
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, layer, std::move(args))) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
