#pragma once
// Event tracing for simulated kernel launches.
//
// When a tracer is attached to a MeshExecutor, every DMA transfer,
// register-communication operation, and barrier is recorded with its
// CPE id and logical begin/end cycles. The trace exports to the Chrome
// tracing JSON format (chrome://tracing, Perfetto), giving the same
// view a performance engineer would use on real silicon: per-CPE
// timelines showing where cycles go — exactly the methodology story the
// paper tells in prose.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace swdnn::sim {

struct TraceEvent {
  int cpe = 0;
  std::string category;  ///< "dma", "bus", "sync", "compute",
                         ///< "plan_cache", "layer"
  std::string name;
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
};

class EventTracer {
 public:
  /// Thread-safe append (executors launching on different host threads
  /// may share one tracer).
  void record(int cpe, std::string category, std::string name,
              std::uint64_t begin_cycle, std::uint64_t end_cycle);

  /// Zero-duration marker — dispatch-level happenings with no cycle
  /// extent, e.g. the API's "plan_cache" hit/miss/fallback events.
  void record_instant(int cpe, std::string category, std::string name,
                      std::uint64_t cycle = 0);

  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  void clear();

  /// Chrome tracing "traceEvents" JSON. Cycles are converted to
  /// microseconds at `clock_ghz`; each CPE renders as a thread.
  std::string to_chrome_json(double clock_ghz) const;

  /// Writes the JSON to a file; throws std::runtime_error on failure.
  void write_chrome_json(const std::string& path, double clock_ghz) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

}  // namespace swdnn::sim
