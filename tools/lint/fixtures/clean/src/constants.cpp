// Fixture: read-only and per-object state (negative control for
// `mutable-static`). Never compiled.
#include <array>
#include <cstdint>

namespace fixture {

constexpr std::uint32_t kSlots = 64;
const std::array<int, 3> kWeights = {1, 2, 3};
extern const char* const kBanner;

namespace {
const char* const kName = "static int not_here = 0;";
}  // namespace

struct Counter {
  static constexpr int kMax = 8;
  static Counter make(int start);
  static bool valid(int v) { return v < kMax; }
  int value{0};
};

static_assert(kSlots == 64, "slot count");

std::uint64_t widen(int v) {
  static const std::array<int, 2> kBias = {0, 1};
  return static_cast<std::uint64_t>(v + kBias[0]);
}

Counter Counter::make(int start) {
  Counter c;
  c.value = start;
  return c;
}

}  // namespace fixture
