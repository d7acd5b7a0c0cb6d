// perf_ledger/ledger.hpp — shared pieces of the paxsim performance ledger.
//
// The ledger drives paxsim in-process through its public API only.  This
// header holds what more than one of its files needs: the host clock, the
// in-memory span recorder of the traced run, the timed store adapter that
// sits on the harness -> serve boundary, result digests and the workload
// interface.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "paxsim.hpp"

namespace ledger {

using namespace paxsim;

/// Seconds on the host's monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of @p v (mean of the middle two for an even count; 0 when empty).
double median(std::vector<double> v);

/// The data seed every study driver defaults to (RunOptions::base_seed).
/// Workload seed 0 maps onto it, so the committed golden digests are the
/// digests of the repo's default runs.
inline constexpr std::uint64_t kDefaultBaseSeed = 314159265;

/// Maps a workload seed onto RunOptions::base_seed.  NPB's generator keeps
/// 46 bits of its seed and degenerates at zero, so seeds map onto odd
/// values well away from it.
inline std::uint64_t base_seed_for(std::uint64_t workload_seed) {
  return kDefaultBaseSeed + 2 * 1000003 * workload_seed;
}

// ---- spans ------------------------------------------------------------------

/// One recorded span: a call from the ledger into a layer (or a stretch of
/// one reconstructed at the store boundary, see TimedStore).
struct Span {
  std::string name;   ///< "<layer>.<what>", e.g. "harness.single"
  double start = 0;   ///< host seconds (now_s)
  double end = 0;
  int id = 0;
  int parent = -1;    ///< enclosing span on the same thread, -1 at the root
  int thread = 0;     ///< dense host-thread index
  std::string cell;   ///< "<workload>/<rep>" or a cell label
  double sim_s = 0;   ///< host_sim_sec inside (npb.cell and harness.run)
};

/// In-memory span recorder.  Disabled (the untraced run) it records
/// nothing and costs one branch per call site.
class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  int begin(const std::string& name, const std::string& cell);
  /// Closes span @p id (no-op for -1).
  void end(int id);
  /// Sets the host_sim_sec of open span @p id (no-op for -1).
  void annotate(int id, double sim_s);
  /// Records an already-finished span under the calling thread's open span.
  void add(const std::string& name, double start, double end,
           const std::string& cell, double sim_s = 0);

  [[nodiscard]] std::vector<Span> take();

 private:
  int thread_index();

  bool enabled_ = false;
  std::mutex mu_;  ///< guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::size_t, int> threads_;  ///< host thread -> dense index
};

/// The process-wide recorder.
Tracer& tracer();

/// RAII span.
class Scope {
 public:
  Scope(const std::string& name, const std::string& cell)
      : id_(tracer().begin(name, cell)) {}
  ~Scope() { tracer().end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ---- digests ----------------------------------------------------------------

/// 64-bit FNV-1a digest of a simulated result: wall cycles (IEEE-754 bits),
/// the full counter table and the verification flag.
std::string digest(const harness::RunResult& r);
/// Same for a profiled serial run's anchor (wall + every anchor counter).
std::string digest(const model::KernelProfile::Anchor& a);

/// Human-readable, version-independent label of a cell key.
std::string cell_label(const harness::CellKey& key);

/// Simulated events of a result: instructions + L1D references + DTLB
/// references + trace-cache references (the repo's one "event" unit).
std::uint64_t events_of(const perf::CounterSet& c);

// ---- the store adapter ------------------------------------------------------

/// A harness::CellStore that forwards to a fresh serve::ResultStore and
/// records what crosses the boundary: per-op host time, hit/write counts,
/// the digest of every cell written or read, and (traced run) serve.get /
/// serve.put spans.  When a load misses and the same thread later stores the
/// same key, the stretch in between is exactly that cell's computation
/// (ExperimentEngine::single and ::predict run lookup, compute and write
/// through on one thread); the adapter records it as an "npb.cell" or
/// "model.predict" span.  ExperimentEngine::run looks every cell up before
/// its batch and writes them all after it, so there no write follows its
/// own miss and no such span is recorded.
class TimedStore final : public harness::CellStore {
 public:
  explicit TimedStore(const std::string& dir) : store_(dir) {}

  bool load_cell(const harness::CellKey& key, harness::CellValue* out) override;
  void store_cell(const harness::CellKey& key,
                  const harness::CellValue& value) override;
  bool load_prediction(const harness::CellKey& key,
                       model::Prediction* out) override;
  void store_prediction(const harness::CellKey& key,
                        const model::Prediction& p) override;

  struct Tally {
    std::uint64_t gets = 0, hits = 0, cell_hits = 0, puts = 0;
    double get_s = 0, put_s = 0;
    std::uint64_t events = 0;   ///< simulated events of cells written
    double sim_s = 0;           ///< host_sim_sec of cells written
    std::uint64_t l2_inval = 0, l1d_miss = 0, l2_miss = 0, bus_pf = 0;
    std::uint64_t unverified = 0;  ///< cells written with verified == false
    std::map<std::string, std::string> digests;  ///< label -> digest
    /// Labels whose digest changed between a write and a later read (or
    /// rewrite) — a store round trip that was not bit-exact.
    std::vector<std::string> mismatches;
  };
  [[nodiscard]] Tally tally() const;

 private:
  void note_get(double t0, double t1, bool hit, const harness::CellKey& key,
                const harness::RunResult* r);
  void note_put(double t0, double t1, const harness::CellKey& key,
                const harness::RunResult* r, const char* derived);
  /// Records @p d as the digest of @p label (caller holds mu_).
  void note_digest(const std::string& label, const std::string& d);

  serve::ResultStore store_;
  mutable std::mutex mu_;  ///< guards tally_ and pending_
  Tally tally_;
  /// thread -> (cell fingerprint, end) of its last store call, if that was
  /// a load that missed.
  std::map<std::size_t, std::pair<std::string, double>> pending_;
};

// ---- workloads --------------------------------------------------------------

/// What one timed repetition of a workload did.
struct RepResult {
  double wall_s = 0;
  double cpu_s = 0;               ///< host CPU seconds of the process
  std::uint64_t cells = 0;        ///< simulated cells + profiling runs
  std::uint64_t sim_cells = 0;    ///< engine cache misses (harness.cells)
  std::uint64_t profiles = 0;
  std::uint64_t events = 0;       ///< simulated events, profiling runs included
  std::uint64_t cell_events = 0;  ///< simulated events of simulated cells
  double sim_s = 0;               ///< Σ host_sim_sec of simulated cells
  std::uint64_t answered_cells = 0;  ///< cells answered by the store
  std::uint64_t l2_inval = 0, l1d_miss = 0, l2_miss = 0, bus_pf = 0;
  std::uint64_t cache_hits = 0, machines_created = 0;
  std::uint64_t store_gets = 0, store_hits = 0, store_puts = 0;
  double store_get_s = 0, store_put_s = 0;
  std::uint64_t tune_sim_cells = 0;
  int workers = 1;                ///< host threads the rep ran cells on
  std::map<std::string, std::string> digests;  ///< label -> digest
  std::vector<std::string> failures;           ///< one line per failed cell
};

/// Options for @p cls at machine @p scale on the resolved `paxville`
/// topology, one trial from @p base_seed.  Throws if the preset is missing.
harness::RunOptions paxville_options(npb::ProblemClass cls, double scale,
                                     std::uint64_t base_seed);

/// The class-S cell of a workload that every run cross-checks between the
/// fast and the reference path.
struct CheckCell {
  npb::Benchmark bench{};
  std::string config;
  double scale = 16;
};

/// A workload: what the ledger sets up once per repetition (engines, inputs)
/// and the closed loop it then times on a fresh store.
class Workload {
 public:
  Workload(std::string name, std::uint64_t seed, npb::ProblemClass cls,
           double scale, int jobs, CheckCell check);
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Cells one repetition must simulate (the memo-cache hygiene check).
  [[nodiscard]] virtual std::uint64_t expected_sim_cells() const = 0;
  [[nodiscard]] const CheckCell& check_cell() const { return check_; }

  /// Resolves the machine, builds fresh engines and the inputs for one
  /// repetition.
  void setup();
  /// Opens a fresh store in @p store_dir, attaches it and runs the timed
  /// closed loop on what setup() built.
  RepResult run(const std::string& store_dir);
  /// Drops the repetition's engines and store (untimed).
  void teardown();

 protected:
  /// One cell the loop issues: benchmark, Table-1 row, options and seed.
  struct Cell {
    npb::Benchmark bench{};
    const harness::StudyConfig* cfg = nullptr;
    harness::RunOptions opt;
    std::uint64_t seed = 0;
  };

  virtual int engine_count() const { return 1; }
  virtual void build_inputs() = 0;
  virtual void loop(RepResult& rep) = 0;

  const harness::StudyConfig& config(const std::string& name) const;
  /// Issues one cell on @p engine inside a harness.single span; an exception
  /// becomes a failure line of @p rep.
  static void issue(harness::ExperimentEngine& engine, const Cell& c,
                    RepResult& rep);

  std::string name_;
  int jobs_;
  CheckCell check_;
  harness::RunOptions opt_;
  std::vector<harness::StudyConfig> configs_;
  std::shared_ptr<TimedStore> store_;
  std::vector<std::unique_ptr<harness::ExperimentEngine>> engines_;
  std::vector<Cell> cells_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

// ---- probes -----------------------------------------------------------------

/// Per-op host costs from fixed-pattern probes; each asserts its exact
/// per-op event counts first and records a failure line if they drift.
struct ProbeResults {
  std::map<std::string, double> values;  ///< metric name -> value
  std::vector<std::string> failures;
};
/// @p store_dir is a fresh directory for the engine probe's store.
ProbeResults run_probes(const std::string& store_dir);

}  // namespace ledger
