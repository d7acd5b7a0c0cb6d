// Fast-path lockstep fuzz: two machines — one with the inlined L1/DTLB
// fast path, one forced through the out-of-line reference path — driven by
// the SAME random load/store stream from every hardware context over a
// small shared heap, so coherence invalidations and downgrades constantly
// land between fast-path accesses.  Every context clock and every counter
// must stay bit-identical throughout, and after every operation each
// core's fast-path registers must pass Core::audit_fast_entries: coherence
// actions leave the registers in place and rely on the set generations to
// retire stale ones.  The default machine and every topology preset run,
// so the chip-shared invalidate_inner/downgrade_inner paths are covered.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "sim/machine.hpp"
#include "sim/topology.hpp"

namespace paxsim::sim {
namespace {

using perf::Event;

void run_lockstep(const MachineParams& params, std::uint64_t seed, int ops) {
  MachineParams fast_params = params;
  fast_params.fast_path = true;
  MachineParams ref_params = params;
  ref_params.fast_path = false;
  Machine fast_machine(fast_params);
  Machine ref_machine(ref_params);
  AddressSpace space(0);
  perf::CounterSet fast_counters;
  perf::CounterSet ref_counters;

  std::vector<HwContext*> fast_ctxs;
  std::vector<HwContext*> ref_ctxs;
  const int cores = fast_params.total_cores();
  for (int g = 0; g < cores; ++g) {
    for (int hw = 0; hw < fast_machine.core_by_id(g).smt_count(); ++hw) {
      HwContext& fc = fast_machine.core_by_id(g).context(hw);
      fc.bind(&fast_counters, space.code_base());
      fast_ctxs.push_back(&fc);
      HwContext& rc = ref_machine.core_by_id(g).context(hw);
      rc.bind(&ref_counters, space.code_base());
      ref_ctxs.push_back(&rc);
    }
  }

  // Shared heap of 64 lines: remote stores invalidate lines the fast path
  // has handles on, remote loads downgrade them.
  const Addr heap = space.alloc(64 * 64, 64);
  std::mt19937_64 rng(seed);

  for (int op = 0; op < ops; ++op) {
    const std::size_t who = rng() % fast_ctxs.size();
    const Addr addr = heap + (rng() % 64) * 64 + (rng() % 8) * 8;
    const bool store = (rng() & 3) == 0;
    const Dep dep = (rng() & 7) == 0 ? Dep::kChained : Dep::kIndependent;
    if (store) {
      fast_ctxs[who]->store(addr, dep);
      ref_ctxs[who]->store(addr, dep);
    } else {
      fast_ctxs[who]->load(addr, dep);
      ref_ctxs[who]->load(addr, dep);
    }
    for (int g = 0; g < cores; ++g) {
      std::string why;
      ASSERT_TRUE(fast_machine.core_by_id(g).audit_fast_entries(&why))
          << why << " at op " << op;
    }
    if (op % 256 == 0) {
      for (std::size_t c = 0; c < fast_ctxs.size(); ++c) {
        ASSERT_EQ(fast_ctxs[c]->now(), ref_ctxs[c]->now())
            << "context " << c << " clock diverged at op " << op;
      }
    }
  }

  for (HwContext* c : fast_ctxs) c->flush_accumulators();
  for (HwContext* c : ref_ctxs) c->flush_accumulators();
  for (std::size_t c = 0; c < fast_ctxs.size(); ++c) {
    EXPECT_EQ(fast_ctxs[c]->now(), ref_ctxs[c]->now());
  }
  EXPECT_EQ(fast_counters, ref_counters)
      << "counter tables diverged between fast and reference paths";
  EXPECT_GT(fast_counters.get(Event::kL2Invalidations), 0u)
      << "the stream must actually exercise coherence invalidations";
}

class FastPathFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathFuzzTest, FastAndReferencePathsStayInLockstep) {
  run_lockstep(MachineParams{}.scaled(64), GetParam(), 20000);  // tiny: churn
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234567u));

class TopologyFastPathFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(TopologyFastPathFuzzTest, FastAndReferencePathsStayInLockstep) {
  const auto& [preset, seed] = GetParam();
  const std::optional<Topology> topo = Topology::from_preset(preset);
  ASSERT_TRUE(topo.has_value()) << preset;
  MachineParams params;
  params.set_topology(std::make_shared<const Topology>(*topo));
  run_lockstep(params.scaled(64), seed, 10000);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, TopologyFastPathFuzzTest,
    ::testing::Combine(::testing::ValuesIn(Topology::preset_names()),
                       ::testing::Values(7u, 99u)));

}  // namespace
}  // namespace paxsim::sim
