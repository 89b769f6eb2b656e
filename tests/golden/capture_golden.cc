// Writes the golden fixture sim_fiber_golden_test compares against.
//
//   capture_golden <out-file> [repeats]
//
// Runs every case of golden_cases.h `repeats` times (default 3) and
// refuses to write anything if any rendered line differs between
// repeats. LaunchStats::failure is recorded in its schedule-independent
// form: in the first launch of the case that failed, the first failure
// of the lowest-numbered failing CPE. The golden campaign fails launches
// only through LDM bit flips, whose events name their CPE and carry a
// per-CPE allocation sequence number; a probe run that flips every
// allocation counts each CPE's allocations per launch, which places
// every event in its launch. The reported message must be one of the
// candidates, and any other failure source makes the tool exit nonzero
// rather than guess.

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "tests/golden/golden_cases.h"

namespace {

using namespace swdnn;

/// Launches a case issues when every one of them fails: backward-filter
/// runs all of its per-tap GEMMs, every other family stops at (or only
/// has) the first launch.
std::int64_t probe_launches(golden::Family f) {
  if (f != golden::Family::kBackwardFilter) return 1;
  const conv::ConvShape shape = golden::ragged_shape();
  return shape.kr * shape.kc;
}

/// LDM allocations each CPE makes per launch of the case.
bool allocations_per_launch(golden::Family f, int mesh,
                            std::vector<std::uint64_t>* per_cpe) {
  sim::FaultPlan plan;
  plan.ldm_bitflip_rate = 1.0;
  sim::FaultInjector injector(plan);
  sim::MeshExecutor exec(golden::mesh_spec(mesh));
  exec.set_fault_injector(&injector);
  golden::run_family(exec, f, mesh);
  per_cpe->assign(static_cast<std::size_t>(mesh * mesh), 0);
  for (const sim::FaultEvent& e : injector.events()) {
    ++(*per_cpe)[static_cast<std::size_t>(e.unit)];
  }
  const auto launches = static_cast<std::uint64_t>(probe_launches(f));
  for (std::uint64_t& n : *per_cpe) {
    if (n == 0 || n % launches != 0) return false;
    n /= launches;
  }
  return true;
}

bool canonical_failure(golden::Family f, int mesh,
                       const sim::LaunchStats& stats,
                       const std::vector<sim::FaultEvent>& events,
                       std::string* out) {
  if (!stats.failed) {
    *out = stats.failure;
    return stats.failure.empty();
  }
  std::vector<std::uint64_t> allocs;
  if (!allocations_per_launch(f, mesh, &allocs)) return false;
  // (launch, cpe) of every failure; the smallest pair names it.
  std::set<std::pair<std::uint64_t, int>> failures;
  for (const sim::FaultEvent& e : events) {
    if (e.site == sim::FaultSite::kLdmCapacity) return false;
    if (e.site != sim::FaultSite::kLdmBitFlip) continue;
    failures.insert(
        {e.sequence / allocs[static_cast<std::size_t>(e.unit)], e.unit});
  }
  if (failures.empty()) return false;
  const auto [launch, cpe] = *failures.begin();
  bool reported_is_candidate = false;
  for (const auto& [l, u] : failures) {
    if (l == launch &&
        stats.failure == "LDM bit flip on CPE " + std::to_string(u)) {
      reported_is_candidate = true;
    }
  }
  if (!reported_is_candidate) return false;
  *out = "LDM bit flip on CPE " + std::to_string(cpe);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <out-file> [repeats]\n", argv[0]);
    return 2;
  }
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  std::string text =
      "# Golden observables of the simulator's mesh launches; see\n"
      "# tests/golden/golden_cases.h. Regenerate with capture_golden.\n";
  for (golden::Family f : golden::kFamilies) {
    for (int mesh : golden::kMeshDims) {
      for (bool faulted : {false, true}) {
        const std::string name = golden::case_name(f, mesh, faulted);
        std::vector<std::string> first;
        for (int rep = 0; rep < repeats; ++rep) {
          sim::LaunchStats stats;
          std::vector<sim::FaultEvent> events;
          golden::render_case(f, mesh, faulted, nullptr, &stats, &events);
          std::string failure;
          if (!canonical_failure(f, mesh, stats, events, &failure)) {
            std::fprintf(stderr, "%s: ambiguous or unexplained failure '%s'\n",
                         name.c_str(), stats.failure.c_str());
            return 1;
          }
          // Re-render with the canonical failure (a second, identical
          // run: every other line is deterministic and checked below).
          const std::vector<std::string> lines =
              golden::render_case(f, mesh, faulted, &failure);
          if (rep == 0) {
            first = lines;
          } else if (lines != first) {
            std::fprintf(stderr, "%s: observables differ between runs\n",
                         name.c_str());
            return 1;
          }
        }
        text += "case " + name + "\n";
        for (const std::string& line : first) text += line + "\n";
        text += "end\n";
        std::printf("%s\n", name.c_str());
      }
    }
  }
  std::ofstream out(argv[1], std::ios::trunc);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  return 0;
}
