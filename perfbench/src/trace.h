// In-memory span recorder for the traced run.
//
// A span is one timed interval around the benchmark's own call into a
// library layer: name, start, end, parent span, and the request it served.
// Spans stay in memory while the run measures and are written out as JSON
// lines when it ends. A layer's self time is its span time minus the part
// its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::uint32_t kNoRequest = 0xffffffffu;

  struct Span {
    std::uint16_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t request = kNoRequest;
  };

  // Records a finished span and returns its id (usable as a parent).
  std::uint32_t add(const std::string& name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent = kNoParent,
                    std::uint32_t request = kNoRequest);

  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;  // sum of span durations
    double self_ns = 0.0;   // minus the time covered by child spans
  };
  // Per-name totals over every span recorded so far.
  std::map<std::string, Totals> totals() const;

  // Writes one JSON object per span (name, start_ns, end_ns, parent,
  // request, id) to `path`. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  std::uint16_t intern(const std::string& name);

  std::vector<std::string> names_;
  std::map<std::string, std::uint16_t> ids_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
