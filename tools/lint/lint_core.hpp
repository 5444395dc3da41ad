// albatross-lint: domain-aware static analysis for the Albatross tree.
//
// A deliberately small token/regex linter (no libclang dependency) that
// enforces the determinism and unit-discipline rules the simulation and
// the conformance harness depend on (docs/STATIC_ANALYSIS.md):
//
//   wall-clock            no real-time reads anywhere (system_clock,
//                         time(), gettimeofday, ...): virtual time only.
//   nondeterministic-rng  no rand()/std::random_device/mt19937 outside
//                         src/common/rng — fuzz replay needs one seeded
//                         PRNG.
//   unordered-iteration   no iteration over unordered_{map,set} in
//                         src/nic, src/gateway, src/sim, src/check,
//                         src/dpu, src/fleet, where hash-map order would
//                         leak into packet ordering or JSON/report
//                         output.
//   naked-time-literal    no raw power-of-1000 literals multiplied into
//                         time expressions outside common/types.hpp and
//                         common/units.hpp — use _us/_ms literals,
//                         kMicrosecond/kSecond, or the named converters.
//   header-hygiene        headers carry #pragma once and never
//                         `using namespace` at file scope.
//   mutable-static        no mutable namespace-scope variables and no
//                         mutable `static` / `thread_local` locals or
//                         data members under src/: fleet AZs run on
//                         concurrent worker threads that may share only
//                         read-only state.
//
// Synthesis-feasibility rules (docs/STATIC_ANALYSIS.md, "Resource-budget
// rules"): every FPGA-resident NIC module class in a src/nic header
// carries a structured budget annotation
//
//   // fpga: lut=<N>, bram_bits=<M>, cycles=<K>
//
// on (or in the doc comment directly above) its class declaration, and
// the linter checks the annotations against the Tab. 5 chip envelope and
// the Tab. 4 stage timings:
//
//   fpga-missing-annotation  NIC module class without (or with a
//                            malformed) budget annotation.
//   fpga-budget-overflow     summed annotated LUT/BRAM across the
//                            pipeline exceeds the FpgaSpec envelope
//                            (912,800 LUTs / 265 Mbit BRAM).
//   fpga-timing-closure      annotated cycles disagree with the
//                            module's NicTimings latency at the 500 MHz
//                            datapath clock.
//   fpga-stale-annotation    annotated bram_bits drift >10% from the
//                            structural accounting FpgaResourceModel::
//                            ledger() computes from the configured data
//                            structures (`albatross_lint --fpga-report`).
//
// Suppression: append `lint:allow(<rule>)` in a comment on the flagged
// line (self-documenting, reviewed in place), or add `<rule> <path
// substring>` to an allowlist file (tools/lint/allowlist.txt).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace albatross::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One `rule path-substring` allowlist entry; `rule` may be `*`.
struct AllowEntry {
  std::string rule;
  std::string path_substring;
};

/// Expected Tab. 4 stage cost for one NIC module class, in cycles of the
/// 500 MHz datapath clock. Modules without an entry are not
/// timing-checked (their latency is not a pipeline-stage constant).
struct FpgaTimingExpectation {
  std::string module;
  std::int64_t cycles = 0;
};

/// The Tab. 4 timing table the `fpga-timing-closure` rule checks
/// annotations against by default. `albatross_lint --fpga-report`
/// re-derives the same table from the compiled-in NicTimings (via
/// FpgaCycles) and fails if this mirror has drifted.
[[nodiscard]] const std::vector<FpgaTimingExpectation>&
default_timing_expectations();

/// Chip envelope for `fpga-budget-overflow`; defaults mirror FpgaSpec
/// (src/nic/resources.hpp): 912,800 LUTs / 265 Mbit of BRAM.
struct FpgaBudget {
  std::uint64_t luts = 912'800;
  std::uint64_t bram_bits = 265ull * 1000 * 1000;
};

struct Config {
  std::vector<AllowEntry> allow;
  /// Envelope the summed `// fpga:` annotations must fit.
  FpgaBudget fpga_budget;
  /// Expected per-module cycles (empty = timing-closure disabled).
  std::vector<FpgaTimingExpectation> fpga_timing =
      default_timing_expectations();
  /// Allowed relative drift between an annotation's bram_bits and the
  /// structural ledger before `fpga-stale-annotation` fires.
  double fpga_stale_tolerance = 0.10;
};

/// One parsed `// fpga: lut=<N>, bram_bits=<M>, cycles=<K>` annotation
/// attached to a class declaration.
struct FpgaAnnotation {
  std::string file;
  int class_line = 0;       ///< line of the `class X` declaration
  int annotation_line = 0;  ///< line carrying the `// fpga:` comment
  std::string module;       ///< class name
  std::uint64_t lut = 0;
  std::uint64_t bram_bits = 0;
  std::int64_t cycles = 0;
  /// Raw source line of the annotation, so cross-file checks (budget /
  /// stale) can honour inline `lint:allow(...)` markers.
  std::string raw_line;
};

/// Structural BRAM accounting for one module class, computed by
/// FpgaResourceModel::ledger() from the actual configured data
/// structures; input to `check_fpga_stale`.
struct FpgaStructural {
  std::string module;
  std::uint64_t bram_bits = 0;
};

/// True when `path` is inside the FPGA-module jurisdiction of the
/// `fpga-*` rules: a header under a `nic/` directory.
[[nodiscard]] bool fpga_scope(std::string_view path);

/// Parses every budget annotation attached to a class declaration in
/// this translation unit (any path; the rules apply scope themselves).
[[nodiscard]] std::vector<FpgaAnnotation> collect_fpga_annotations(
    std::string_view path, std::string_view text);

/// Reads a file and collects its annotations; unreadable files yield an
/// empty list.
[[nodiscard]] std::vector<FpgaAnnotation> collect_fpga_annotations_file(
    const std::string& path);

/// `fpga-budget-overflow`: the summed annotated LUT/BRAM across
/// `annotations` must fit `budget`. A violation is anchored at the
/// largest contributor of the overflowing resource.
[[nodiscard]] std::vector<Finding> check_fpga_budget(
    const std::vector<FpgaAnnotation>& annotations, const FpgaBudget& budget);

/// `fpga-timing-closure`: every annotation whose module has an entry in
/// `expectations` must match it exactly (both sides are cycle counts of
/// the same 500 MHz datapath clock).
[[nodiscard]] std::vector<Finding> check_fpga_timing(
    const std::vector<FpgaAnnotation>& annotations,
    const std::vector<FpgaTimingExpectation>& expectations);

/// `fpga-stale-annotation`: an annotation whose module has a structural
/// ledger figure must stay within `tolerance` relative drift of it.
[[nodiscard]] std::vector<Finding> check_fpga_stale(
    const std::vector<FpgaAnnotation>& annotations,
    const std::vector<FpgaStructural>& structural, double tolerance);

/// Shared suppression predicate: true when `finding` is silenced by an
/// inline `lint:allow(<rule>)` marker on its raw source line or by an
/// allowlist entry in `config`. Single source of truth for both the
/// per-file rule sink and the cross-file budget/stale checks.
[[nodiscard]] bool suppressed(const Finding& finding,
                              std::string_view raw_line,
                              const Config& config);

/// Renders findings as a deterministic JSON array (stable field order,
/// escaped strings, order as given). Shared by `--json` and
/// `--fpga-report`.
[[nodiscard]] std::string findings_to_json(
    const std::vector<Finding>& findings);

/// Parses an allowlist file: one `<rule> <path-substring>` pair per
/// line; `#` starts a comment; blank lines ignored.
[[nodiscard]] std::vector<AllowEntry> parse_allowlist(std::string_view text);

/// Lints one translation unit given its (repo-relative or absolute)
/// path and full source text. The path decides which path-scoped rules
/// apply; the text is scanned after comment/string stripping, except
/// that `lint:allow(...)` markers and `// fpga:` budget annotations are
/// honoured from the raw comments.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view path,
                                               std::string_view text,
                                               const Config& config = {});

/// Reads and lints a file on disk. Unreadable files produce a single
/// `io-error` finding rather than a crash.
[[nodiscard]] std::vector<Finding> lint_file(const std::string& path,
                                             const Config& config = {});

/// Names of all implemented rules, for `--list-rules` and the tests.
[[nodiscard]] const std::vector<std::string>& rule_names();

}  // namespace albatross::lint
