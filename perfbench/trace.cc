#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, const std::string& layer,
                  std::string args) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.args = std::move(args);
  span.start_s = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  const double now = Now();
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
    return;
  }
  spans_[static_cast<size_t>(id)].end_s = now;
  open_.pop_back();
}

void Tracer::EndIfOpen(const std::string& name) {
  if (!open_.empty() && spans_[static_cast<size_t>(open_.back())].name == name) {
    End(open_.back());
  }
}

void Tracer::AddArgs(int id, const std::string& args) {
  std::string& target = spans_[static_cast<size_t>(id)].args;
  if (!target.empty()) target += ',';
  target += args;
}

double Tracer::SelfSeconds(size_t id) const {
  const Span& span = spans_[id];
  double self = span.end_s - span.start_s;
  for (size_t i = id + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<int>(id)) {
      self -= spans_[i].end_s - spans_[i].start_s;
    }
  }
  return self;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer(size_t first) const {
  // Children nest inside their parent and never overlap each other (one
  // thread, stack discipline), so a span's covered time is the plain sum of
  // its children's durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int>(first)) {
      child_time[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += (s.end_s - s.start_s) - child_time[i];
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  // One thread track: the spans nest by time, so the viewer stacks them the
  // way they were opened. The layer goes into the event category.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"driver\"}}");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d%s%s}}",
                 s.name.c_str(), s.layer.c_str(), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent,
                 s.args.empty() ? "" : ",", s.args.c_str());
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
