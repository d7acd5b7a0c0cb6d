// paxsim/serve/serve.hpp
//
// The paxserve batch driver: expands a job file (serve/jobs.hpp) against a
// persistent result store (serve/store.hpp) and computes exactly the cells
// the store cannot already answer.
//
// Progress streams as NDJSON — one {"kind":"serve_progress"} line per cell
// with its outcome ("hit" | "computed" | "skipped" | "error") and a final
// {"kind":"serve_summary"} line whose computed/store_hits counts tooling
// keys off (a fully warmed store re-run prints "computed":0).
//
// Scaling: --jobs=N host threads inside one process (the engine's
// dispatch).  Separate invocations may share one store: they coordinate
// only through the store's atomic writes, and racing writers on a shared
// cell dedup through rename(2).
//
// Interruption and resume need no bookkeeping beyond the store itself:
// every computed cell is persisted the moment it finishes, so re-running
// the same job file picks up where the interrupted run stopped.
// --max-cells=N bounds how many cells one invocation computes (stored
// answers don't count), turning interruption into a deterministic,
// testable event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/jobs.hpp"

namespace paxsim::serve {

/// Knobs of one `paxsim serve` invocation.
struct ServeOptions {
  std::string jobs_file;        ///< path to the job-file JSON (required)
  std::string store_dir;        ///< --store override; "" uses the job
                                ///< file's "store" member
  int jobs = 1;                 ///< host worker threads
  std::uint64_t max_cells = 0;  ///< stop after computing N cells (0 = all)
  bool progress = true;         ///< stream per-cell NDJSON lines
};

/// What one invocation did.  total == store_hits + computed + skipped +
/// failures always holds.
struct ServeSummary {
  std::uint64_t total = 0;       ///< cells in the expanded plan
  std::uint64_t store_hits = 0;  ///< answered by the store, not computed
  std::uint64_t computed = 0;    ///< simulated/predicted by this run
  std::uint64_t skipped = 0;     ///< left for later (--max-cells reached)
  std::uint64_t failures = 0;    ///< cells that threw (verification, I/O)
};

/// Runs the expanded @p plan against the store at @p store_dir on
/// opt.jobs engine workers.  NDJSON progress goes to @p progress when
/// non-null.  The workhorse run_serve() and the tests drive directly.
ServeSummary serve_cells(const JobPlan& plan, const std::string& store_dir,
                         const ServeOptions& opt, std::ostream* progress);

/// The `paxsim serve` entry point: loads opt.jobs_file, resolves the store
/// directory, serves the plan through serve_cells(), streams NDJSON to
/// @p out and diagnostics to @p err.  Returns a process exit code (0 even
/// when --max-cells left cells unanswered; 1 on failures or bad input).
int run_serve(const ServeOptions& opt, std::ostream& out, std::ostream& err);

}  // namespace paxsim::serve
