// Tests for albatross-lint (tools/lint): each domain rule must fire on
// a known-bad snippet, stay silent on clean code and on prose
// (comments/strings), honour inline and file allowlists, and respect
// its path scoping.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint_core.hpp"

namespace albatross::lint {
namespace {

std::vector<std::string> rules_fired(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

bool fired(const std::vector<Finding>& findings, const std::string& rule) {
  const auto rules = rules_fired(findings);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

/// The single-rule snippets below keep their state at namespace scope
/// for brevity, which mutable-static would flag; that rule has its own
/// cases further down.
std::vector<Finding> lint_snippet(std::string_view path,
                                  std::string_view text,
                                  Config config = {}) {
  config.allow.push_back({"mutable-static", ""});
  return lint_source(path, text, config);
}

TEST(Lint, WallClockCallFires) {
  const auto f = lint_snippet("src/sim/event_loop.cpp",
                             "#include <chrono>\n"
                             "auto t = std::chrono::system_clock::now();\n"
                             "long e = time(nullptr);\n"
                             "timeval tv; gettimeofday(&tv, nullptr);\n");
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(fired(f, "wall-clock"));
  EXPECT_EQ(f[0].line, 2);
}

TEST(Lint, WallClockIgnoresSuffixedIdentifiers) {
  // run_time(...) / head_deadline(...) are not wall-clock reads.
  const auto f = lint_snippet("src/sim/event_loop.cpp",
                             "auto a = run_time(x);\n"
                             "auto b = q.head_deadline();\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, NondeterministicRngFires) {
  const auto f = lint_snippet("src/traffic/flow_gen.cpp",
                             "#include <random>\n"
                             "std::random_device rd;\n"
                             "std::mt19937 gen(rd());\n"
                             "int r = rand() % 7;\n");
  EXPECT_TRUE(fired(f, "nondeterministic-rng"));
  EXPECT_EQ(f.size(), 3u);
}

TEST(Lint, RngAllowedInCommonRng) {
  // The seeded PRNG implementation itself is the one legal home.
  const auto f = lint_snippet("src/common/rng.hpp",
                             "#pragma once\n"
                             "std::mt19937_64 engine_;\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, UnorderedIterationInDispatchLoopFires) {
  const std::string bad =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> flows_;\n"
      "void flush() {\n"
      "  for (const auto& [k, v] : flows_) { emit(v); }\n"
      "}\n";
  const auto f = lint_snippet("src/nic/plb_dispatch.cpp", bad);
  ASSERT_TRUE(fired(f, "unordered-iteration"));
  EXPECT_EQ(f[0].line, 4);
  // Same code outside the determinism scope is not in jurisdiction.
  EXPECT_TRUE(lint_snippet("src/traffic/flow_gen.cpp", bad).empty());
}

TEST(Lint, UnorderedIteratorLoopFires) {
  const auto f = lint_source(
      "src/check/oracle.hpp",
      "#pragma once\n"
      "#include <unordered_map>\n"
      "std::unordered_map<int, long> seen_;\n"
      "void age() {\n"
      "  for (auto it = seen_.begin(); it != seen_.end(); ++it) {}\n"
      "}\n");
  EXPECT_TRUE(fired(f, "unordered-iteration"));
}

TEST(Lint, OrderedIterationIsClean) {
  const auto f = lint_snippet("src/nic/plb_dispatch.cpp",
                             "#include <map>\n"
                             "std::map<int, int> flows_;\n"
                             "void flush() {\n"
                             "  for (const auto& [k, v] : flows_) {}\n"
                             "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, NakedTimeLiteralFires) {
  const auto f = lint_snippet(
      "src/sim/event_loop.cpp",
      "NanoTime deadline = now + budget_ms * 1'000'000;\n"
      "const auto slack = NanoTime{5'000'000};\n");
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(fired(f, "naked-time-literal"));
}

TEST(Lint, NamedUnitConstantsAreClean) {
  const auto f = lint_snippet(
      "src/sim/event_loop.cpp",
      "NanoTime deadline = now + 100 * kMicrosecond;\n"
      "const auto gap = nanos_from_double(1e9 / pps);\n"
      "const auto t = 5_us + 2_ms;\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, TimeLiteralAllowedInUnitsHeader) {
  const auto f = lint_source("src/common/units.hpp",
                             "#pragma once\n"
                             "constexpr Nanos kSecond{1'000'000'000};\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, HeaderHygieneFires) {
  const auto f = lint_source("src/nic/bad.hpp",
                             "#include <string>\n"
                             "using namespace std;\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_TRUE(fired(f, "header-hygiene"));
  // .cpp files are free to `using namespace` locally.
  EXPECT_TRUE(
      lint_source("src/nic/ok.cpp", "using namespace std::chrono_literals;\n")
          .empty());
}

TEST(Lint, ProseDoesNotFire) {
  // Comments and string literals are stripped before the rules run.
  const auto f = lint_source(
      "src/sim/event_loop.cpp",
      "// system_clock and rand() are banned here\n"
      "/* std::random_device too */\n"
      "const char* msg = \"never call gettimeofday(now)\";\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, InlineAllowSuppresses) {
  const auto f = lint_snippet(
      "src/check/probe.cpp",
      "std::unordered_map<int, int> q_;\n"
      "void collect() {\n"
      "  for (const auto& [k, v] : q_) {  // lint:allow(unordered-iteration)\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, AllowlistFileSuppressesByPath) {
  Config config;
  config.allow = parse_allowlist(
      "# comment lines are skipped\n"
      "wall-clock sim/legacy_\n"
      "* vendored/\n");
  ASSERT_EQ(config.allow.size(), 2u);
  const std::string bad = "auto t = std::chrono::system_clock::now();\n";
  EXPECT_TRUE(lint_snippet("src/sim/legacy_timer.cpp", bad, config).empty());
  EXPECT_TRUE(lint_snippet("third_party/vendored/x.cpp", bad, config).empty());
  EXPECT_FALSE(lint_snippet("src/sim/event_loop.cpp", bad, config).empty());
}

TEST(Lint, CleanFixtureIsClean) {
  const auto f = lint_source("src/gateway/gw_pod.cpp",
                             "#include \"gateway/gw_pod.hpp\"\n"
                             "void GwPod::tick(NanoTime now) {\n"
                             "  deadline_ = now + 50 * kMicrosecond;\n"
                             "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(Lint, UnorderedIterationCoversDpuAndFleet) {
  // src/dpu and src/fleet were added after the rule and must be in its
  // determinism jurisdiction too.
  const std::string bad =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> flows_;\n"
      "void flush() {\n"
      "  for (const auto& [k, v] : flows_) { emit(v); }\n"
      "}\n";
  EXPECT_TRUE(fired(lint_source("src/dpu/dpu_datapath.cpp", bad),
                    "unordered-iteration"));
  EXPECT_TRUE(fired(lint_source("src/fleet/fleet_engine.cpp", bad),
                    "unordered-iteration"));
}

TEST(Lint, MutableStaticFiresOnSharedState) {
  const auto f = lint_source(
      "src/fleet/engine.cpp",
      "std::uint64_t g_seen = 0;\n"
      "namespace {\n"
      "std::vector<int> scratch{1, 2};\n"
      "thread_local int last_core;\n"
      "}  // namespace\n"
      "struct Registry {\n"
      " public:\n"
      "  static int instances;\n"
      "};\n"
      "int next_id() {\n"
      "  if (true) {\n"
      "    static int counter = 0;\n"
      "    return ++counter;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  std::vector<int> lines;
  for (const auto& finding : f) {
    EXPECT_EQ(finding.rule, "mutable-static");
    lines.push_back(finding.line);
  }
  EXPECT_EQ(lines, (std::vector<int>{1, 3, 4, 8, 12}));
}

TEST(Lint, MutableStaticAllowsConstantsFunctionsAndCasts) {
  const auto f = lint_source(
      "src/common/table.cpp",
      "#include <array>\n"
      "#define LIMIT(x) { static int y = x; }\n"
      "constexpr int kSlots = 64;\n"
      "const std::array<int, 2> kBias = {0, 1};\n"
      "extern int g_declared_elsewhere;\n"
      "int helper(int v);\n"
      "static int helper2(int v) { return v; }\n"
      "struct Counter {\n"
      "  static constexpr int kMax = 8;\n"
      "  static Counter make(int start);\n"
      "  static bool valid(int v) { return v < kMax; }\n"
      "  int value{0};\n"
      "  Counter& operator=(const Counter&) = default;\n"
      "};\n"
      "static_assert(kSlots == 64);\n"
      "Counter::Counter(int v) : value{v} {\n"
      "  static const int kOnce = 1;\n"
      "  value = static_cast<int>(v) + kOnce;\n"
      "}\n");
  EXPECT_TRUE(f.empty()) << f.front().line << ": " << f.front().message;
}

TEST(Lint, MutableStaticScopedToSrcAndSuppressible) {
  const std::string bad = "int g_counter = 0;\n";
  EXPECT_TRUE(fired(lint_source("src/sim/event_loop.cpp", bad),
                    "mutable-static"));
  EXPECT_TRUE(lint_source("tools/albatross_sim.cpp", bad).empty());
  EXPECT_TRUE(lint_source("tests/test_fleet.cpp", bad).empty());
  EXPECT_TRUE(lint_source("src/packet/packet.cpp",
                          "thread_local int pool;  "
                          "// lint:allow(mutable-static)\n")
                  .empty());
}

TEST(Lint, RuleNamesStable) {
  const auto& names = rule_names();
  EXPECT_EQ(names.size(), 10u);
  EXPECT_TRUE(std::find(names.begin(), names.end(), "header-hygiene") !=
              names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "wall-clock") !=
              names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(),
                        "fpga-budget-overflow") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "mutable-static") !=
              names.end());
}

// ---- Synthesis-feasibility (fpga-*) rules ------------------------------

TEST(LintFpga, MissingAnnotationFires) {
  const std::string code =
      "#pragma once\n"
      "class PlbEngine {\n"
      " public:\n"
      "  int dispatch();\n"
      "};\n";
  const auto f = lint_source("src/nic/plb_dispatch.hpp", code);
  ASSERT_TRUE(fired(f, "fpga-missing-annotation"));
  EXPECT_EQ(f[0].line, 2);
  // Only headers under nic/ are FPGA-resident jurisdiction.
  EXPECT_TRUE(lint_source("src/sim/event_loop.hpp", code).empty());
  EXPECT_TRUE(lint_source("src/nic/plb_dispatch.cpp", code).empty());
}

TEST(LintFpga, ForwardDeclAndEnumClassAreClean) {
  const auto f = lint_source("src/nic/fwd.hpp",
                             "#pragma once\n"
                             "class ReorderQueue;\n"
                             "enum class PktClass { kPlb, kRss };\n"
                             "template <class T>\n"
                             "void use(T t);\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintFpga, AnnotatedClassIsClean) {
  const auto f = lint_source(
      "src/nic/plb_dispatch.hpp",
      "#pragma once\n"
      "/// Dispatch stage.\n"
      "// fpga: lut=15'012, bram_bits=4'096, cycles=25\n"
      "class PlbEngine {\n"
      "};\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintFpga, MalformedAnnotationFires) {
  const auto f = lint_source("src/nic/plb_dispatch.hpp",
                             "#pragma once\n"
                             "// fpga: lut=15'012, cycles=25\n"
                             "class PlbEngine {\n"
                             "};\n");
  ASSERT_TRUE(fired(f, "fpga-missing-annotation"));
}

TEST(LintFpga, TimingClosureFires) {
  const auto f = lint_source(
      "src/nic/plb_reorder.hpp",
      "#pragma once\n"
      "// fpga: lut=100'000, bram_bits=2'048, cycles=9999\n"
      "class ReorderQueue {\n"
      "};\n");
  ASSERT_TRUE(fired(f, "fpga-timing-closure"));
  EXPECT_EQ(f[0].line, 2);  // anchored at the annotation line
}

TEST(LintFpga, BudgetOverflowFires) {
  const auto bram = lint_source(
      "src/nic/big.hpp",
      "#pragma once\n"
      "// fpga: lut=1'000, bram_bits=300'000'000, cycles=0\n"
      "class BigTable {\n"
      "};\n");
  ASSERT_TRUE(fired(bram, "fpga-budget-overflow"));
  const auto lut = lint_source(
      "src/nic/big.hpp",
      "#pragma once\n"
      "// fpga: lut=1'000'000, bram_bits=0, cycles=0\n"
      "class BigLogic {\n"
      "};\n");
  ASSERT_TRUE(fired(lut, "fpga-budget-overflow"));
}

TEST(LintFpga, StaleAnnotationDrift) {
  const auto annotations = collect_fpga_annotations(
      "src/nic/plb_reorder.hpp",
      "// fpga: lut=100'000, bram_bits=12'058'624, cycles=175\n"
      "class ReorderQueue {\n"
      "};\n");
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_EQ(annotations[0].module, "ReorderQueue");
  EXPECT_EQ(annotations[0].bram_bits, 12'058'624u);
  // >10% off the structural ledger figure: stale.
  const auto stale = check_fpga_stale(
      annotations, {{"ReorderQueue", 10'000'000}}, 0.10);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "fpga-stale-annotation");
  // Within tolerance: fine.
  EXPECT_TRUE(check_fpga_stale(annotations, {{"ReorderQueue", 12'000'000}},
                               0.10)
                  .empty());
  // Unmapped modules are not stale-checked.
  EXPECT_TRUE(check_fpga_stale(annotations, {{"PktDir", 1}}, 0.10).empty());
}

TEST(LintFpga, InlineAllowSuppresses) {
  const auto f = lint_source(
      "src/nic/host_model.hpp",
      "#pragma once\n"
      "class HostModel {  // lint:allow(fpga-missing-annotation)\n"
      "};\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintFpga, AllowlistSuppressesByPath) {
  Config config;
  config.allow = parse_allowlist("fpga-missing-annotation nic/legacy_\n");
  const std::string code =
      "#pragma once\n"
      "class LegacyStage {\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/nic/legacy_stage.hpp", code, config).empty());
  EXPECT_FALSE(lint_source("src/nic/new_stage.hpp", code, config).empty());
}

TEST(LintFpga, FindingsToJsonDeterministicAndEscaped) {
  EXPECT_EQ(findings_to_json({}), "[]");
  const std::vector<Finding> f = {
      {"a.hpp", 3, "fpga-budget-overflow", "say \"no\"\n"}};
  const auto json = findings_to_json(f);
  EXPECT_NE(json.find("\"file\": \"a.hpp\""), std::string::npos);
  EXPECT_NE(json.find("\\\"no\\\"\\n"), std::string::npos);
}

}  // namespace
}  // namespace albatross::lint
