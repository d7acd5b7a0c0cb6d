// perf_ledger/workloads.cpp — the ledger's four workloads.
//
// Each is a closed loop from one process: the ledger issues cells through
// the public engine API and waits for them.  Every repetition gets fresh
// ExperimentEngines (built in setup(), outside the timed phase) and a fresh
// on-disk ResultStore, so neither the memo cache nor the store answers a
// timed cell; run_single resets the simulated machine, so caches start empty
// per cell.  The store is opened inside the timed phase: its cost is a
// handful of file-system calls whose latency varied tenfold between
// processes on the measurement host, which would swamp the CPU-bound rest of
// set-up.
#include <algorithm>
#include <stdexcept>
#include <thread>

#include "ledger.hpp"

namespace ledger {

Workload::Workload(std::string name, std::uint64_t seed, npb::ProblemClass cls,
                   double scale, int jobs, CheckCell check)
    : name_(std::move(name)),
      jobs_(jobs),
      check_(std::move(check)),
      opt_(paxville_options(cls, scale, base_seed_for(seed))) {}

void Workload::setup() {
  opt_ = paxville_options(opt_.cls, opt_.machine_scale, opt_.base_seed);
  configs_ = harness::configs_for(*opt_.topology);
  engines_.clear();
  for (int e = 0; e < engine_count(); ++e) {
    engines_.push_back(std::make_unique<harness::ExperimentEngine>(jobs_));
  }
  build_inputs();
}

void Workload::teardown() {
  engines_.clear();
  store_.reset();
}

RepResult Workload::run(const std::string& store_dir) {
  RepResult rep;
  rep.workers = jobs_;
  const double t0 = now_s();
  store_ = std::make_shared<TimedStore>(store_dir);
  for (const auto& e : engines_) e->set_store(store_);
  loop(rep);
  rep.wall_s = now_s() - t0;
  const TimedStore::Tally t = store_->tally();
  for (const auto& e : engines_) {
    const harness::EngineStats s = e->stats();
    rep.sim_cells += s.cache_misses;
    rep.cache_hits += s.cache_hits;
    rep.machines_created += s.machines_created;
  }
  // loop() has already counted any profiling runs and their events.
  rep.cells += rep.sim_cells;
  rep.events += t.events;
  rep.cell_events = t.events;
  rep.sim_s = t.sim_s;
  rep.l2_inval = t.l2_inval;
  rep.l1d_miss = t.l1d_miss;
  rep.l2_miss = t.l2_miss;
  rep.bus_pf = t.bus_pf;
  rep.store_gets = t.gets;
  rep.store_hits = t.hits;
  rep.store_puts = t.puts;
  rep.store_get_s = t.get_s;
  rep.store_put_s = t.put_s;
  rep.answered_cells = t.cell_hits;
  rep.digests.insert(t.digests.begin(), t.digests.end());
  for (const std::string& m : t.mismatches) {
    rep.failures.push_back("store round trip changed " + m);
  }
  if (t.unverified != 0) {
    rep.failures.push_back(std::to_string(t.unverified) +
                           " cell(s) failed numeric verification");
  }
  return rep;
}

const harness::StudyConfig& Workload::config(const std::string& name) const {
  const int i = harness::find_config_index(configs_, name);
  if (i < 0) throw std::runtime_error("unknown configuration " + name);
  return configs_[static_cast<std::size_t>(i)];
}

void Workload::issue(harness::ExperimentEngine& engine, const Cell& c,
                     RepResult& rep) {
  const std::string label =
      std::string(npb::benchmark_name(c.bench)) + "|" + c.cfg->name;
  Scope span("harness.single", label);
  try {
    (void)engine.single(c.bench, *c.cfg, c.opt, c.seed);
  } catch (const std::exception& e) {
    rep.failures.push_back(label + ": " + e.what());
  }
}

namespace {

const std::vector<npb::Benchmark>& suite() {
  static const std::vector<npb::Benchmark> v(std::begin(npb::kAllBenchmarks),
                                             std::end(npb::kAllBenchmarks));
  return v;
}

/// The paper's §4.1.7 cell: CG, class B, HT on -8-2, scale 16, one thread.
class CgCoherence final : public Workload {
 public:
  explicit CgCoherence(std::uint64_t seed)
      : Workload("cg_coherence", seed, npb::ProblemClass::kClassB, 16.0, 1,
                 {npb::Benchmark::kCG, "HT on -8-2", 16.0}) {}
  [[nodiscard]] std::uint64_t expected_sim_cells() const override { return 1; }

 private:
  void build_inputs() override {
    cells_ = {Cell{npb::Benchmark::kCG, &config("HT on -8-2"), opt_,
                   opt_.trial_seed(0)}};
  }
  void loop(RepResult& rep) override {
    for (const Cell& c : cells_) issue(*engines_[0], c, rep);
  }
};

/// The Figure-3 plan at class B, run as bench/fig3_speedup runs it: every
/// kernel on every parallel Table-1 row plus the serial baselines, one
/// trial, in one ExperimentEngine::run over the engine's worker pool with
/// jobs = min(4, nproc).  The cells run unspanned on the pool's threads; the
/// harness.run span carries their summed host_sim_sec, from which the ledger
/// derives worker idle time.
class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(std::uint64_t seed)
      : Workload("paper_sweep", seed, npb::ProblemClass::kClassB, 16.0,
                 sweep_jobs(), {npb::Benchmark::kMG, "HT off -4-2", 16.0}) {}
  [[nodiscard]] std::uint64_t expected_sim_cells() const override {
    return suite().size() * harness::all_configs().size();
  }

 private:
  static int sweep_jobs() {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
  }
  void build_inputs() override {
    std::vector<harness::StudyConfig> parallel;
    for (const harness::StudyConfig& c : configs_) {
      if (!c.is_serial()) parallel.push_back(c);
    }
    plan_ = harness::ExperimentPlan(opt_, std::move(parallel))
                .add_benchmarks(suite())
                .with_serial_baselines();
  }
  void loop(RepResult& rep) override {
    const int span = tracer().begin("harness.run", name_);
    try {
      (void)engines_[0]->run(plan_);
    } catch (const std::exception& e) {
      rep.failures.push_back(std::string("harness.run: ") + e.what());
    }
    if (span >= 0) tracer().annotate(span, store_->tally().sim_s);
    tracer().end(span);
  }

  harness::ExperimentPlan plan_{harness::RunOptions{}, {}};
};

/// Serial cells on the full-size (scale 1) machine: the L1 fast path does
/// most of the work and one context means no coherence actions at all.
class SerialFastpath final : public Workload {
 public:
  explicit SerialFastpath(std::uint64_t seed)
      : Workload("serial_fastpath", seed, npb::ProblemClass::kClassB, 1.0, 1,
                 {npb::Benchmark::kIS, "Serial", 1.0}) {}
  [[nodiscard]] std::uint64_t expected_sim_cells() const override {
    return suite().size() * kTrials;
  }

 private:
  static constexpr int kTrials = 3;
  void build_inputs() override {
    cells_.clear();
    for (int t = 0; t < kTrials; ++t) {
      for (const npb::Benchmark b : suite()) {
        cells_.push_back(Cell{b, &config("Serial"), opt_, opt_.trial_seed(t)});
      }
    }
  }
  void loop(RepResult& rep) override {
    for (const Cell& c : cells_) issue(*engines_[0], c, rep);
  }
};

/// Greedy model-first tuning of every kernel at class W on one thread, then
/// the same tuning again with a fresh engine on the same store.  Each
/// kernel's profile is requested explicitly before its tuning call — the
/// tuner would profile the identical key itself on first use, so the work
/// is unchanged and the profile becomes a span of its own.
class TuneProfile final : public Workload {
 public:
  explicit TuneProfile(std::uint64_t seed)
      : Workload("tune_profile", seed, npb::ProblemClass::kClassW, 16.0, 1,
                 {npb::Benchmark::kFT, "HT on -4-1", 16.0}) {}
  [[nodiscard]] std::uint64_t expected_sim_cells() const override {
    return suite().size() * static_cast<std::uint64_t>(kTopK);
  }

 private:
  static constexpr int kTopK = 2;
  int engine_count() const override { return 2; }
  void build_inputs() override {
    topt_ = tune::TuneOptions{};
    topt_.strategy = "greedy";
    topt_.top_k = kTopK;
  }
  void loop(RepResult& rep) override {
    for (std::size_t pass = 0; pass < engines_.size(); ++pass) {
      harness::ExperimentEngine& engine = *engines_[pass];
      const std::uint64_t misses_before = engine.stats().cache_misses;
      for (const npb::Benchmark b : suite()) {
        const std::string kname(npb::benchmark_name(b));
        const std::string label = "profile|" + kname + "|" +
                                  std::string(npb::class_name(opt_.cls)) +
                                  "|s" + std::to_string(opt_.trial_seed(0));
        try {
          std::shared_ptr<const model::KernelProfile> prof;
          {
            Scope span("model.profile", label);
            prof = engine.profile(b, opt_, opt_.trial_seed(0));
          }
          const auto& a = prof->anchor;
          ++rep.profiles;
          rep.events += static_cast<std::uint64_t>(
              a.instructions + 2 * a.l1d_refs + a.tc_refs);
          const std::string d = digest(a);
          const auto [it, inserted] = rep.digests.emplace(label, d);
          if (!inserted && it->second != d) {
            rep.failures.push_back("profile changed between passes: " + label);
          }
          tune::TuneReport report;
          {
            Scope span("tune.tune", kname);
            report = tune::tune(engine, {b}, opt_, "paxville", topt_);
          }
          for (const tune::KernelResult& kr : report.kernels) {
            rep.tune_sim_cells += kr.sim_cells;
          }
        } catch (const std::exception& e) {
          rep.failures.push_back(kname + ": " + e.what());
        }
      }
      const std::uint64_t computed = engine.stats().cache_misses - misses_before;
      if (pass > 0 && computed != 0) {
        rep.failures.push_back("second tuning pass simulated " +
                               std::to_string(computed) +
                               " cell(s); the store should answer all");
      }
    }
    rep.cells += rep.profiles;
  }

  tune::TuneOptions topt_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> v = {"cg_coherence", "paper_sweep",
                                             "serial_fastpath", "tune_profile"};
  return v;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cg_coherence") return std::make_unique<CgCoherence>(seed);
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(seed);
  if (name == "serial_fastpath") return std::make_unique<SerialFastpath>(seed);
  if (name == "tune_profile") return std::make_unique<TuneProfile>(seed);
  return nullptr;
}

}  // namespace ledger
