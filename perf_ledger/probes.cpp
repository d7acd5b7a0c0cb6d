// perf_ledger/probes.cpp — fixed-pattern per-op cost probes.
//
// Each probe drives one simulator or runtime operation directly on a built
// sim::Machine (HwContext::load/store, Machine::reset, Team::parallel_for,
// Team::barrier) and reports host time per operation as the median over
// several timed blocks.  Before its time counts, a probe checks the exact
// per-op event counts of one block, so a probe that drifts onto another
// path (an L1 "hit" probe that starts missing, a coherence probe without
// invalidations) fails instead of reporting a misleading cost.
#include <functional>

#include "ledger.hpp"

namespace ledger {

namespace {

constexpr int kBlocks = 7;

/// Runs @p block kBlocks times; returns the median host seconds per block.
double time_blocks(const std::function<void()>& block) {
  std::vector<double> t;
  for (int b = 0; b < kBlocks; ++b) {
    const double t0 = now_s();
    block();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// Records a failure unless event @p e moved by exactly @p want.
void expect(ProbeResults& out, const char* probe, const perf::CounterSet& d,
            perf::Event e, std::uint64_t want) {
  const std::uint64_t got = d.get(e);
  if (got != want) {
    out.failures.push_back(std::string(probe) + ": " +
                           std::string(perf::event_name(e)) + " moved by " +
                           std::to_string(got) + ", expected " +
                           std::to_string(want));
  }
}

/// 18-bit bit reversal: a bijection on [0, 2^18) whose consecutive values
/// are far apart with no constant stride, so a stream prefetcher never
/// locks on.
std::uint64_t bitrev18(std::uint64_t i) {
  std::uint64_t r = 0;
  for (int b = 0; b < 18; ++b) r |= ((i >> b) & 1) << (17 - b);
  return r;
}

/// One bound context on a fresh machine, plus its program state.
struct Rig {
  explicit Rig(double scale) : machine(sim::MachineParams{}.scaled(scale)), space(0) {}
  sim::HwContext& bind(sim::LogicalCpu cpu) {
    sim::HwContext& ctx = machine.context(cpu);
    ctx.bind(&counters, space.code_base());
    return ctx;
  }
  sim::Machine machine;
  sim::AddressSpace space;
  perf::CounterSet counters;
};

constexpr sim::Addr kLine = 64;

void probe_l1_hit(ProbeResults& out) {
  Rig rig(1.0);
  sim::HwContext& ctx = rig.bind({0, 0, 0});
  constexpr int kLines = 32;  // 2 KiB: far inside the 16 KiB L1D
  constexpr int kOps = 400000;
  const sim::Addr base = rig.space.alloc(kLines * kLine, 4096);
  for (int i = 0; i < kLines; ++i) ctx.load(base + i * kLine);
  auto block = [&] {
    for (int i = 0; i < kOps; ++i) ctx.load(base + (i % kLines) * kLine);
    ctx.flush_accumulators();
  };
  ctx.flush_accumulators();
  const perf::CounterSet before = rig.counters;
  block();
  const perf::CounterSet d = rig.counters.delta_since(before);
  expect(out, "sim.l1_hit", d, perf::Event::kL1dReferences, kOps);
  expect(out, "sim.l1_hit", d, perf::Event::kL1dMisses, 0);
  expect(out, "sim.l1_hit", d, perf::Event::kDtlbLoadMisses, 0);
  out.values["sim.l1_hit_ns"] = time_blocks(block) / kOps * 1e9;
}

void probe_l2_hit(ProbeResults& out) {
  Rig rig(1.0);
  sim::HwContext& ctx = rig.bind({0, 0, 0});
  constexpr int kLines = 2048;  // 128 KiB: 8x the L1D, 1/16 of the L2
  constexpr int kOps = 200000;
  const sim::Addr base = rig.space.alloc(kLines * kLine, 4096);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kLines; ++i) ctx.load(base + i * kLine);
  }
  auto block = [&] {
    for (int i = 0; i < kOps; ++i) ctx.load(base + (i % kLines) * kLine);
    ctx.flush_accumulators();
  };
  ctx.flush_accumulators();
  const perf::CounterSet before = rig.counters;
  block();
  const perf::CounterSet d = rig.counters.delta_since(before);
  expect(out, "sim.l2_hit", d, perf::Event::kL1dMisses, kOps);
  expect(out, "sim.l2_hit", d, perf::Event::kL2Misses, 0);
  expect(out, "sim.l2_hit", d, perf::Event::kBusTransactions, 0);
  out.values["sim.l2_hit_ns"] = time_blocks(block) / kOps * 1e9;
}

void probe_l2_miss(ProbeResults& out) {
  Rig rig(16.0);
  sim::HwContext& ctx = rig.bind({0, 0, 0});
  constexpr std::uint64_t kRegionLines = std::uint64_t{1} << 18;  // 16 MiB
  constexpr int kOps = 20000;
  const sim::Addr base = rig.space.alloc(kRegionLines * kLine, 4096);
  std::uint64_t next = 0;
  // Every op touches a line never touched before, so it misses L1D and L2.
  auto block = [&] {
    for (int i = 0; i < kOps; ++i) {
      ctx.load(base + bitrev18(next++ % kRegionLines) * kLine);
    }
    ctx.flush_accumulators();
  };
  ctx.flush_accumulators();
  const perf::CounterSet before = rig.counters;
  block();
  const perf::CounterSet d = rig.counters.delta_since(before);
  expect(out, "sim.l2_miss", d, perf::Event::kL2Misses, kOps);
  expect(out, "sim.l2_miss", d, perf::Event::kBusReads, kOps);
  expect(out, "sim.l2_miss", d, perf::Event::kBusPrefetches, 0);
  expect(out, "sim.l2_miss", d, perf::Event::kL2Invalidations, 0);
  // kBlocks more blocks stay within the region's 2^18 fresh lines.
  out.values["sim.l2_miss_ns"] = time_blocks(block) / kOps * 1e9;
}

void probe_prefetch(ProbeResults& out) {
  Rig rig(16.0);
  sim::HwContext& ctx = rig.bind({0, 0, 0});
  constexpr std::uint64_t kRegionLines = std::uint64_t{1} << 18;  // 16 MiB
  constexpr int kOps = 20000;
  const sim::Addr base = rig.space.alloc(kRegionLines * kLine, 4096);
  std::uint64_t next = 0;
  // A forward unit-stride stream over lines never touched before: the
  // stream engine prefetches ahead and demand loads land on prefetched lines.
  auto block = [&] {
    for (int i = 0; i < kOps; ++i) ctx.load(base + (next++ % kRegionLines) * kLine);
    ctx.flush_accumulators();
  };
  block();  // the stream engine locks on during the first block
  const perf::CounterSet before = rig.counters;
  block();
  const perf::CounterSet d = rig.counters.delta_since(before);
  expect(out, "sim.prefetch", d, perf::Event::kL1dMisses, kOps);
  expect(out, "sim.prefetch", d, perf::Event::kL2Misses, 0);
  expect(out, "sim.prefetch", d, perf::Event::kBusPrefetches, kOps);
  out.values["sim.prefetch_ns"] = time_blocks(block) / kOps * 1e9;
}

void probe_coherence(ProbeResults& out) {
  Rig rig(16.0);
  // One core on each chip, the way "HT on -8-2" spreads a team.
  sim::HwContext& a = rig.bind({0, 0, 0});
  sim::HwContext& b = rig.bind({1, 0, 0});
  constexpr int kLines = 64;
  constexpr int kRounds = 500;  // each round: b then a store every line
  constexpr int kOps = 2 * kRounds * kLines;
  const sim::Addr base = rig.space.alloc(kLines * kLine, 4096);
  for (int i = 0; i < kLines; ++i) a.store(base + i * kLine);
  // Every store hits a line the other core holds modified: one remote
  // invalidation per op.
  auto block = [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kLines; ++i) b.store(base + i * kLine);
      for (int i = 0; i < kLines; ++i) a.store(base + i * kLine);
    }
    a.flush_accumulators();
    b.flush_accumulators();
  };
  a.flush_accumulators();
  b.flush_accumulators();
  const perf::CounterSet before = rig.counters;
  block();
  const perf::CounterSet d = rig.counters.delta_since(before);
  expect(out, "sim.coherence", d, perf::Event::kL2Invalidations, kOps);
  expect(out, "sim.coherence", d, perf::Event::kL1dReferences, kOps);
  out.values["sim.coherence_ns"] = time_blocks(block) / kOps * 1e9;
}

void probe_machine_reset(ProbeResults& out) {
  Rig rig(16.0);
  const std::vector<sim::LogicalCpu>& cpus =
      harness::find_config("HT on -8-2")->cpus;
  constexpr int kLines = 4096;
  const sim::Addr base = rig.space.alloc(kLines * kLine, 4096);
  auto dirty = [&] {
    for (const sim::LogicalCpu cpu : cpus) {
      sim::HwContext& ctx = rig.bind(cpu);
      for (int i = 0; i < kLines; i += 4) ctx.store(base + i * kLine);
      ctx.flush_accumulators();
    }
  };
  std::vector<double> t;
  for (int r = 0; r < 25; ++r) {
    dirty();
    const double t0 = now_s();
    rig.machine.reset();
    t.push_back(now_s() - t0);
  }
  // A reset machine is cold: the first load of a line it held misses.
  sim::HwContext& ctx = rig.bind({0, 0, 0});
  const perf::CounterSet before = rig.counters;
  ctx.load(base);
  ctx.flush_accumulators();
  const perf::CounterSet d = rig.counters.delta_since(before);
  expect(out, "sim.machine_reset", d, perf::Event::kL1dMisses, 1);
  expect(out, "sim.machine_reset", d, perf::Event::kL2Misses, 1);
  out.values["sim.machine_reset_us"] = median(t) * 1e6;
}

/// An 8-thread team on "HT on -8-2" at grain 1, the cg_coherence /
/// paper_sweep setting.
struct TeamRig {
  TeamRig() : machine(sim::MachineParams{}.scaled(16.0)), space(0) {
    const std::vector<sim::LogicalCpu>& cpus =
        harness::find_config("HT on -8-2")->cpus;
    team = std::make_unique<xomp::Team>(machine, cpus, &counters, space);
    team->set_grain(1);
  }
  sim::Machine machine;
  sim::AddressSpace space;
  perf::CounterSet counters;
  std::unique_ptr<xomp::Team> team;
};

void probe_grain(ProbeResults& out) {
  TeamRig rig;
  constexpr std::size_t kIters = 100000;
  const xomp::CodeBlock body{1, 4};
  auto block = [&] {
    rig.team->parallel_for(0, kIters, xomp::Schedule::static_default(), body,
                           [](std::size_t, sim::HwContext& ctx, int) {
                             ctx.alu(1);
                           });
    rig.team->flush();
  };
  block();  // warm the trace cache and the runtime's shared lines
  const perf::CounterSet before = rig.counters;
  const double t = time_blocks(block);
  const perf::CounterSet d = rig.counters.delta_since(before);
  // One trace-cache reference per iteration (its body block), plus six per
  // thread for the fork and join.
  const std::uint64_t threads = static_cast<std::uint64_t>(rig.team->size());
  expect(out, "xomp.grain", d, perf::Event::kTraceCacheReferences,
         kBlocks * (kIters + 6 * threads));
  out.values["xomp.grain_ns"] = t / kIters * 1e9;
}

void probe_barrier(ProbeResults& out) {
  TeamRig rig;
  constexpr int kBarriers = 20000;
  auto block = [&] {
    for (int i = 0; i < kBarriers; ++i) rig.team->barrier();
    rig.team->flush();
  };
  block();
  const perf::CounterSet before = rig.counters;
  const double t = time_blocks(block);
  const perf::CounterSet d = rig.counters.delta_since(before);
  // Each thread loads and stores the shared barrier line once.
  const std::uint64_t threads = static_cast<std::uint64_t>(rig.team->size());
  expect(out, "xomp.barrier", d, perf::Event::kL1dReferences,
         kBlocks * kBarriers * 2 * threads);
  out.values["xomp.barrier_ns"] = t / kBarriers * 1e9;
}

/// Class-S options on the resolved Paxville machine, default seed.
harness::RunOptions class_s_options() {
  return paxville_options(npb::ProblemClass::kClassS, 16.0, kDefaultBaseSeed);
}

/// Profiling, prediction and the tuner's model-tier search on CG class S.
void probe_model_tune(ProbeResults& out) {
  const harness::RunOptions o = class_s_options();
  const std::uint64_t seed = o.trial_seed(0);
  const npb::Benchmark cg = npb::Benchmark::kCG;
  std::vector<double> profile_s;
  double anchor = -1;
  for (int i = 0; i < 3; ++i) {
    harness::ExperimentEngine fresh(1);
    const double t0 = now_s();
    const auto prof = fresh.profile(cg, o, seed);
    profile_s.push_back(now_s() - t0);
    if (anchor >= 0 && prof->anchor.wall_cycles != anchor) {
      out.failures.push_back("model.profile: profile changed between runs");
    }
    anchor = prof->anchor.wall_cycles;
  }
  out.values["model.profile_s"] = median(profile_s);

  harness::ExperimentEngine engine(1);
  const auto prof = engine.profile(cg, o, seed);
  const sim::MachineParams mp = o.machine_params();
  const harness::StudyConfig& cfg = *harness::find_config("HT on -8-2");
  const model::Placement place = harness::placement_for(cfg, *o.topology);
  const double want = model::predict(*prof, mp, place).wall_cycles;
  constexpr int kPredicts = 500;
  int drifted = 0;
  const double t = time_blocks([&] {
    for (int i = 0; i < kPredicts; ++i) {
      drifted += model::predict(*prof, mp, place).wall_cycles != want;
    }
  });
  if (drifted != 0 || !(want > 0)) {
    out.failures.push_back("model.predict: prediction not pure and positive");
  }
  out.values["model.predict_us"] = t / kPredicts * 1e6;

  tune::TuneOptions topt;
  topt.strategy = "greedy";
  const tune::TuneReport first = tune::tune(engine, {cg}, o, "paxville", topt);
  std::vector<double> search_s;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    const tune::TuneReport again = tune::tune(engine, {cg}, o, "paxville", topt);
    search_s.push_back(now_s() - t0);
    // Everything below the search is memoized now: no simulator cell may
    // run, and the search must crown the same point.
    if (again.kernels[0].sim_cells != 0 ||
        again.kernels[0].best.label != first.kernels[0].best.label) {
      out.failures.push_back("tune.search: warm search simulated or drifted");
    }
  }
  out.values["tune.search_s"] = median(search_s);
}

/// Host time ExperimentEngine::single spends per cell outside the cell's
/// computation and store I/O (lookup, pool lease, memoization, returning
/// the machine), from spans around EP class-S serial cells.
void probe_cell_overhead(ProbeResults& out, const std::string& store_dir) {
  const harness::RunOptions o = class_s_options();
  constexpr int kCells = 24;
  harness::ExperimentEngine engine(1);
  engine.set_store(std::make_shared<TimedStore>(store_dir));
  const harness::StudyConfig& serial = harness::serial_config();
  tracer().enable(true);
  for (int i = 0; i < kCells; ++i) {
    Scope span("harness.single", "EP|Serial");
    (void)engine.single(npb::Benchmark::kEP, serial, o, o.trial_seed(i));
  }
  tracer().enable(false);
  const std::vector<Span> spans = tracer().take();
  std::vector<double> self(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.name == "harness.single") self[static_cast<std::size_t>(s.id)] += s.end - s.start;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  std::vector<double> per_cell;
  for (const Span& s : spans) {
    if (s.name == "harness.single") per_cell.push_back(self[static_cast<std::size_t>(s.id)]);
  }
  const harness::EngineStats st = engine.stats();
  if (st.cache_misses != kCells || st.machines_created != 1 ||
      per_cell.size() != kCells) {
    out.failures.push_back("harness.cell_overhead: expected " +
                           std::to_string(kCells) + " cells on one machine");
  }
  out.values["harness.cell_overhead_ms"] = median(per_cell) * 1e3;
}

}  // namespace

ProbeResults run_probes(const std::string& store_dir) {
  ProbeResults out;
  probe_l1_hit(out);
  probe_l2_hit(out);
  probe_l2_miss(out);
  probe_prefetch(out);
  probe_coherence(out);
  probe_machine_reset(out);
  probe_grain(out);
  probe_barrier(out);
  probe_model_tune(out);
  probe_cell_overhead(out, store_dir);
  return out;
}

}  // namespace ledger
