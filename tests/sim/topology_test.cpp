// Unit tests for sim::Topology: the presets must be valid machines, the
// JSON description must round-trip losslessly, malformed descriptions
// (zero-way caches, non-power-of-two lines, orphan NUMA nodes) must be
// rejected with a reason, and the derived arithmetic (flat/unflat,
// fingerprints) must be self-consistent.
#include <gtest/gtest.h>

#include <string>

#include "sim/topology.hpp"

namespace paxsim::sim {
namespace {

TEST(TopologyTest, PresetsAreValidAndSimulatable) {
  for (const std::string& name : Topology::preset_names()) {
    const auto topo = Topology::from_preset(name);
    ASSERT_TRUE(topo.has_value()) << name;
    std::string why;
    EXPECT_TRUE(topo->validate(&why)) << name << ": " << why;
    EXPECT_TRUE(topo->validate_for_sim(&why)) << name << ": " << why;
    EXPECT_EQ(topo->name, name);
  }
  EXPECT_FALSE(Topology::from_preset("itanium").has_value());
}

TEST(TopologyTest, PaxvilleMatchesTheCalibratedShape) {
  const Topology t = Topology::paxville();
  EXPECT_EQ(t.packages, 2);
  EXPECT_EQ(t.cores_per_package, 2);
  EXPECT_EQ(t.smt_per_core, 2);
  EXPECT_EQ(t.total_cores(), 4);
  EXPECT_EQ(t.total_contexts(), 8);
  EXPECT_EQ(t.contexts_per_chip(), 4);
  ASSERT_EQ(t.levels.size(), 2u);
  EXPECT_EQ(t.levels[0].scope, SharingScope::kPerCore);
  EXPECT_EQ(t.levels[1].scope, SharingScope::kPerCore);
  EXPECT_FALSE(t.has_chip_shared_cache());
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_EQ(t.interconnect, Interconnect::kSharedFsb);
}

TEST(TopologyTest, FlatAndUnflatAreInverse) {
  for (const std::string& name : Topology::preset_names()) {
    const Topology t = *Topology::from_preset(name);
    for (int i = 0; i < t.total_contexts(); ++i) {
      const LogicalCpu cpu = t.unflat(i);
      EXPECT_EQ(t.flat(cpu), i) << name << " index " << i;
    }
  }
}

TEST(TopologyTest, FingerprintsDistinguishThePresets) {
  const auto& names = Topology::preset_names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    for (std::size_t b = a + 1; b < names.size(); ++b) {
      EXPECT_NE(Topology::from_preset(names[a])->fingerprint(),
                Topology::from_preset(names[b])->fingerprint())
          << names[a] << " vs " << names[b];
    }
  }
}

TEST(TopologyTest, JsonRoundTripsEveryPreset) {
  for (const std::string& name : Topology::preset_names()) {
    const Topology t = *Topology::from_preset(name);
    Topology back;
    std::string why;
    ASSERT_TRUE(Topology::parse_json(t.to_json(), &back, &why))
        << name << ": " << why;
    // The fingerprint covers every simulation-relevant field, so equal
    // fingerprints (plus the name) mean the trip was lossless.
    EXPECT_EQ(back.fingerprint(), t.fingerprint()) << name;
    EXPECT_EQ(back.name, t.name);
    EXPECT_EQ(back.levels.size(), t.levels.size());
    EXPECT_EQ(back.nodes.size(), t.nodes.size());
  }
}

TEST(TopologyTest, RejectsZeroWayCache) {
  Topology t = Topology::paxville();
  t.levels[0].geometry.ways = 0;
  std::string why;
  EXPECT_FALSE(t.validate(&why));
  EXPECT_NE(why.find("way"), std::string::npos) << why;
  Topology parsed;
  EXPECT_FALSE(Topology::parse_json(t.to_json(), &parsed, &why));
}

TEST(TopologyTest, RejectsNonPowerOfTwoLineSize) {
  Topology t = Topology::paxville();
  t.levels[1].geometry.line_bytes = 48;
  std::string why;
  EXPECT_FALSE(t.validate(&why));
  Topology parsed;
  EXPECT_FALSE(Topology::parse_json(t.to_json(), &parsed, &why));
}

TEST(TopologyTest, RejectsOrphanNumaNode) {
  Topology t = Topology::numa16();
  t.nodes.push_back(MemNode{200, 20.0, 14.0, {}});  // homes no package
  std::string why;
  EXPECT_FALSE(t.validate(&why));
  Topology parsed;
  EXPECT_FALSE(Topology::parse_json(t.to_json(), &parsed, &why));
}

TEST(TopologyTest, RejectsPackageHomedTwice) {
  Topology t = Topology::numa16();
  t.nodes[1].home_packages.push_back(0);  // package 0 now homed by 2 nodes
  std::string why;
  EXPECT_FALSE(t.validate(&why));
}

TEST(TopologyTest, ResolveAcceptsPresetsAndRejectsGarbage) {
  Topology t;
  std::string why;
  ASSERT_TRUE(Topology::resolve("woodcrest", &t, &why)) << why;
  EXPECT_EQ(t.fingerprint(), Topology::woodcrest().fingerprint());
  EXPECT_FALSE(Topology::resolve("/nonexistent/machine.json", &t, &why));
  EXPECT_NE(why.find("/nonexistent/machine.json"), std::string::npos) << why;
}

// ---- hostile topology files --------------------------------------------
// Topology JSON comes from user files, so every malformed or adversarial
// document must come back false with a reason: no crash, no silent
// acceptance of a loose number, no cast of an out-of-range value.

/// The paxville preset's document with the first @p from replaced by @p to.
std::string paxville_with(const std::string& from, const std::string& to) {
  std::string text = Topology::paxville().to_json();
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(TopologyJsonTest, RejectsHostileDocumentsWithAReason) {
  const std::string full = Topology::paxville().to_json();
  const struct {
    const char* what;
    std::string text;
  } cases[] = {
      {"200,000-deep nesting", std::string(200000, '[')},
      {"arithmetic in a number", paxville_with("\"packages\":2", "\"packages\":2-5")},
      {"leading plus", paxville_with("\"packages\":2", "\"packages\":+2")},
      {"dangling exponent", paxville_with("\"packages\":2", "\"packages\":+2e")},
      {"bare decimal point", paxville_with("\"packages\":2", "\"packages\":1.")},
      {"overflowing number",
       paxville_with("\"link_read_occupancy\":50.2",
                     "\"link_read_occupancy\":1e999")},
      {"truncated document", full.substr(0, full.size() / 2)},
      {"non-object root", "[1,2,3]"},
  };
  for (const auto& c : cases) {
    Topology t;
    std::string why;
    EXPECT_FALSE(Topology::parse_json(c.text, &t, &why)) << c.what;
    EXPECT_FALSE(why.empty()) << c.what;
  }
}

TEST(TopologyJsonTest, DuplicateMembersResolveFirstWins) {
  // A later "packages":99 would fail validate(); first-wins keeps the 2.
  Topology t;
  std::string why;
  ASSERT_TRUE(Topology::parse_json(
      paxville_with("\"packages\":2", "\"packages\":2,\"packages\":99"), &t,
      &why))
      << why;
  EXPECT_EQ(t.packages, 2);
  EXPECT_EQ(t.fingerprint(), Topology::paxville().fingerprint());
}

TEST(TopologyJsonTest, HomePackagesAreRangeCheckedBeforeTheCast) {
  for (const char* bad : {"[0,1e300]", "[0,-1e300]", "[0,1.5]", "[0,\"1\"]"}) {
    Topology t;
    std::string why;
    EXPECT_FALSE(Topology::parse_json(
        paxville_with("\"home_packages\":[0,1]",
                      std::string("\"home_packages\":") + bad),
        &t, &why))
        << bad;
    EXPECT_NE(why.find("home_packages entry"), std::string::npos)
        << bad << ": " << why;
  }
}

}  // namespace
}  // namespace paxsim::sim
