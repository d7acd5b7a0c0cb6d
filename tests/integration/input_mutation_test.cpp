// Deterministic mutation fuzzing of the JSON input boundaries: topology
// files and serve job files.  Seed documents are byte-mutated (bit flip,
// insert, delete, truncate) by a fixed-seed SplitMix64, and every mutant
// must either parse or fail with a reason — never crash, hang or trip a
// sanitizer.  A topology that parses must also be a valid machine.  Fixed
// seeds keep the corpus identical on every run, so a failure reproduces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/jobs.hpp"
#include "sim/topology.hpp"
#include "tune/strategy.hpp"

namespace paxsim {
namespace {

constexpr int kMutantsPerSeed = 4000;

/// The CI topology smoke's hand-written machine file.
const char* const kFatL2 =
    R"({"schema_version":1,"kind":"topology","name":"fat-l2","packages":2,)"
    R"("cores_per_package":2,"smt_per_core":1,"interconnect":"shared_fsb",)"
    R"("link_read_occupancy":50.2,"link_write_occupancy":50.2,"levels":[)"
    R"({"name":"L1D","size_bytes":16384,"line_bytes":64,"ways":8,)"
    R"("scope":"core","latency":4},{"name":"L2","size_bytes":4194304,)"
    R"("line_bytes":64,"ways":8,"scope":"chip","latency":14}],"nodes":[)"
    R"({"latency":300,"read_occupancy":40.4,"write_occupancy":28.4,)"
    R"("home_packages":[0,1]}]})";

/// A small job file (the CI serve smoke's plan, one trial).
const char* const kJobFile =
    R"({"schema_version":1,"kind":"job_file",)"
    R"("defaults":{"class":"S","trials":1,"scale":16.0},)"
    R"("sweeps":[{"benches":["CG","MG"],)"
    R"("configs":["Serial","HT off -4-2"],"modes":["single","predict"]}]})";

/// One to four random edits of @p seed.  Inserted bytes favour JSON's
/// structural and numeric characters so mutants reach past the tokenizer.
std::string mutate(const std::string& seed, tune::SplitMix64& rng) {
  static const std::string kAlphabet = "{}[],:\"0123456789.-+eE \\tnull";
  std::string s = seed;
  const int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t at = rng.below(s.size());
    switch (rng.below(4)) {
      case 0:  // flip one bit
        s[at] = static_cast<char>(s[at] ^ (1u << rng.below(8)));
        break;
      case 1:  // insert a byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                 rng.below(4) == 0
                     ? static_cast<char>(rng.below(256))
                     : kAlphabet[rng.below(kAlphabet.size())]);
        break;
      case 2:  // delete a byte
        s.erase(at, 1);
        break;
      default:  // truncate
        s.resize(at);
        break;
    }
  }
  return s;
}

TEST(InputMutationTest, TopologyMutantsParseValidOrFailWithAReason) {
  std::vector<std::string> seeds;
  for (const std::string& name : sim::Topology::preset_names()) {
    seeds.push_back(sim::Topology::from_preset(name)->to_json());
  }
  seeds.emplace_back(kFatL2);
  int parsed = 0;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    tune::SplitMix64 rng(0x70b0 + k);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string text = mutate(seeds[k], rng);
      sim::Topology t;
      std::string why;
      if (sim::Topology::parse_json(text, &t, &why)) {
        ++parsed;
        EXPECT_TRUE(t.validate(&why)) << why << "\n" << text;
      } else {
        EXPECT_FALSE(why.empty()) << text;
      }
    }
  }
  // Some single-byte edits (inside a name, a flipped digit) stay valid; a
  // corpus where nothing parses would only exercise the tokenizer.
  EXPECT_GT(parsed, 0);
}

TEST(InputMutationTest, JobFileMutantsParseOrFailWithAReason) {
  tune::SplitMix64 rng(0x10b5);
  int parsed = 0;
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string text = mutate(kJobFile, rng);
    serve::JobPlan plan;
    std::string why;
    if (serve::parse_job_file(text, &plan, &why)) {
      ++parsed;
    } else {
      EXPECT_FALSE(why.empty()) << text;
    }
  }
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace paxsim
