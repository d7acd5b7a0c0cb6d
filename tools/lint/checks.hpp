// paxlint/checks.hpp
//
// The project-specific checks.  Each one codifies an invariant this
// codebase already paid to learn dynamically (paxcheck, TSan CI) — the
// catalog, the historical bug behind each check, and the suppression
// policy are documented in docs/LINTING.md.
//
//   shared-scratch    host state mutated inside a Team parallel body
//                     without per-rank indexing (the PR 7 FT-pencil and
//                     BT/SP ADI-scratch TSan race class), including the
//                     in-place same-array neighbour stencil shape of the
//                     PR 3 MG Jacobi race and unsynchronised RMW /
//                     rank-conditional publish-poll on simulated arrays.
//   determinism       iteration over std::unordered_map/set or a
//                     pointer-keyed std::map/set — unspecified (or ASLR-
//                     dependent) order that must never feed counters,
//                     report::Json documents or CellKey fingerprints.
//   wallclock         rand()/time()/clock()/std::random_device/
//                     std::chrono::*_clock::now() — host nondeterminism
//                     sources, legal only at annotated bench-timing and
//                     host-provenance sites.
//   trace-sink-guard  TraceSink hook invocation in a header of src/sim/
//                     or src/xomp/ — fast-path-inlinable code must never
//                     consult the sink (bit-identity discipline).
//   fold-order        per-rank shard reduction not in ascending
//                     rank order (descending or reversed accumulation).
//   suppression       a paxlint suppression without the mandatory
//                     rationale, or naming an unknown check.
#pragma once

#include <string>
#include <vector>

#include "source.hpp"

namespace paxlint {

struct Finding {
  std::string check;
  std::string path;
  int line = 0;
  int col = 0;
  std::string message;
  bool suppressed = false;
  std::string rationale;  // of the matching suppression, when suppressed
};

struct UnusedSuppression {
  std::string path;
  int line = 0;
  std::string check;
};

struct LintResult {
  std::vector<Finding> findings;           // deterministic path/line order
  std::vector<UnusedSuppression> unused;   // advisory, never failing
  std::size_t files_scanned = 0;
  [[nodiscard]] std::size_t unsuppressed() const {
    std::size_t n = 0;
    for (const Finding& f : findings) n += f.suppressed ? 0 : 1;
    return n;
  }
};

/// All check ids, in catalog order ("suppression" last).
const std::vector<std::string>& check_ids();

/// Runs @p checks (empty = all) over every file of @p project.
LintResult run_lint(const Project& project,
                    const std::vector<std::string>& checks = {});

}  // namespace paxlint
