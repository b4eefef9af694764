#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::uint16_t Tracer::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::uint32_t Tracer::add(const std::string& name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint32_t parent,
                          std::uint32_t request) {
  spans_.push_back(Span{intern(name), start_ns, end_ns, parent, request});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Child time per parent, clipped to the parent's interval. Children of one
  // parent are recorded by one thread one after another, so they do not
  // overlap and their clipped durations sum to the covered time.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) continue;
    const Span& parent = spans_[span.parent];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) child_ns[span.parent] += static_cast<double>(hi - lo);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    Totals& t = out[names_[span.name]];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += std::max(0.0, duration - child_ns[i]);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%lld}\n",
                 i, names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.request == kNoRequest ? -1LL
                                         : static_cast<long long>(s.request));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
