// In-memory span recorder for the traced run: each span has a name,
// wall start/end (ns since the recorder was created) and its parent
// span; the list is written out as JSON once the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace simbench {

class Spans {
 public:
  using Id = std::size_t;
  static constexpr Id kNone = static_cast<Id>(-1);

  Id open(std::string name) {
    spans_.push_back({std::move(name), now_ns(), 0, open_});
    open_ = spans_.size() - 1;
    return open_;
  }

  void close(Id id) {
    spans_[id].end_ns = now_ns();
    open_ = spans_[id].parent;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld}%s\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    Id parent;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  Id open_ = kNone;
};

}  // namespace simbench
