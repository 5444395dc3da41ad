// Fixture: mutable state shared by every thread. Must trip
// `mutable-static` (six sites). Never compiled.
#include <cstdint>
#include <vector>

namespace fixture {

std::uint64_t g_packets_seen = 0;

namespace {
std::vector<int> scratch{1, 2, 3};
thread_local int last_core;
}  // namespace

struct Registry {
  static int instances;
  static std::vector<int> ids_{};
  static Registry& get();
};

int next_id() {
  static int counter = 0;
  return ++counter;
}

}  // namespace fixture
