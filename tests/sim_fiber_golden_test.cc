// The fiber scheduler against golden fixtures.
//
// tests/golden/fiber_golden.txt was captured from the thread-per-CPE
// executor this scheduler replaced (see golden_cases.h for what each
// case runs and records). Every rendered line — every LaunchStats
// field, the output bytes, each CPE's trace event sequence, the sorted
// fault events — must be exactly equal: cooperative scheduling is only
// correct if nothing the simulator models can tell it apart.

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <map>
#include <string>
#include <vector>

#include "tests/golden/golden_cases.h"

namespace swdnn {
namespace {

std::map<std::string, std::vector<std::string>> load_fixture() {
  std::map<std::string, std::vector<std::string>> cases;
  std::ifstream in(SWDNN_GOLDEN_DIR "/fiber_golden.txt");
  std::string line, current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("case ", 0) == 0) {
      current = line.substr(5);
      cases[current];
    } else if (line == "end") {
      current.clear();
    } else if (!current.empty()) {
      cases[current].push_back(line);
    }
  }
  return cases;
}

const std::map<std::string, std::vector<std::string>>& fixture() {
  static const auto cases = load_fixture();
  return cases;
}

struct GoldenCase {
  golden::Family family;
  int mesh;
  bool faulted;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << golden::case_name(c.family, c.mesh, c.faulted);
}

std::vector<GoldenCase> all_cases() {
  std::vector<GoldenCase> cases;
  for (golden::Family f : golden::kFamilies) {
    for (int mesh : golden::kMeshDims) {
      for (bool faulted : {false, true}) cases.push_back({f, mesh, faulted});
    }
  }
  return cases;
}

class FiberGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(FiberGolden, MatchesThreadedExecutorExactly) {
  const GoldenCase& c = GetParam();
  const std::string name = golden::case_name(c.family, c.mesh, c.faulted);
  const auto it = fixture().find(name);
  ASSERT_NE(it, fixture().end()) << "fixture has no case " << name;
  const std::vector<std::string> got =
      golden::render_case(c.family, c.mesh, c.faulted, nullptr);
  const std::vector<std::string>& want = it->second;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << name << " line " << i;
  }
}

TEST(FiberGoldenFixture, CoversEveryCase) {
  EXPECT_EQ(fixture().size(), all_cases().size());
}

// The fixture's launches always attach a tracer, so they never take
// the untraced fold of the per-message broadcast accounting (one step
// instead of a loop when neither a tracer nor an injector observes the
// messages). Each family's untraced, uninjected launch must report the
// traced launch's LaunchStats field by field, and the same output.
struct FamilyMesh {
  golden::Family family;
  int mesh;
};

void PrintTo(const FamilyMesh& c, std::ostream* os) {
  *os << golden::case_name(c.family, c.mesh, false);
}

std::vector<FamilyMesh> all_family_meshes() {
  std::vector<FamilyMesh> cases;
  for (golden::Family f : golden::kFamilies) {
    for (int mesh : golden::kMeshDims) cases.push_back({f, mesh});
  }
  return cases;
}

class UntracedLaunch : public ::testing::TestWithParam<FamilyMesh> {};

TEST_P(UntracedLaunch, StatsEqualTheTracedLaunch) {
  const FamilyMesh& c = GetParam();
  sim::MeshExecutor traced(golden::mesh_spec(c.mesh));
  sim::EventTracer tracer;
  traced.set_tracer(&tracer);
  sim::MeshExecutor untraced(golden::mesh_spec(c.mesh));
  const golden::CaseResult want = golden::run_family(traced, c.family, c.mesh);
  const golden::CaseResult got =
      golden::run_family(untraced, c.family, c.mesh);
  EXPECT_GT(tracer.size(), 0u);
  const sim::LaunchStats& w = want.stats;
  const sim::LaunchStats& g = got.stats;
  EXPECT_EQ(g.max_compute_cycles, w.max_compute_cycles);
  EXPECT_EQ(g.total_flops, w.total_flops);
  EXPECT_EQ(g.regcomm_messages, w.regcomm_messages);
  EXPECT_EQ(g.dma.get_bytes, w.dma.get_bytes);
  EXPECT_EQ(g.dma.put_bytes, w.dma.put_bytes);
  EXPECT_EQ(g.dma.requests, w.dma.requests);
  EXPECT_EQ(g.dma.misaligned_requests, w.dma.misaligned_requests);
  EXPECT_EQ(g.dma_seconds, w.dma_seconds);
  EXPECT_EQ(g.compute_seconds, w.compute_seconds);
  EXPECT_EQ(g.failed, w.failed);
  EXPECT_EQ(g.persistent_fault, w.persistent_fault);
  EXPECT_EQ(g.failure, w.failure);
  EXPECT_EQ(g.fault_events, w.fault_events);
  EXPECT_EQ(g.dma_retries, w.dma_retries);
  EXPECT_EQ(got.output_hash, want.output_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Families, UntracedLaunch, ::testing::ValuesIn(all_family_meshes()),
    [](const ::testing::TestParamInfo<FamilyMesh>& info) {
      return std::string(golden::family_name(info.param.family)) + "_mesh" +
             std::to_string(info.param.mesh);
    });

INSTANTIATE_TEST_SUITE_P(
    Launches, FiberGolden, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = golden::case_name(info.param.family, info.param.mesh,
                                           info.param.faulted);
      for (char& ch : name) {
        if (ch == '/') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace swdnn
