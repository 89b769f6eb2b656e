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
