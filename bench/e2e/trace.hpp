// In-memory span recorder for the traced run, plus the forwarding wrappers
// that time calls into the scan substrate from outside the library.
//
// Spans are recorded only by the benchmark's own files, around each call it
// makes into a layer's public functions.  A span is {id, parent, request,
// layer, start, end}; the main thread keeps a stack of open spans, and
// chunk bodies running on pool workers record a finished span whose parent
// is the dispatch that ran them.  The ledger turns the span tree into self
// time per layer that adds up to the traced wall time (see ledger()).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "sfa/core/scan/engine.hpp"
#include "sfa/core/scan/executor.hpp"

namespace sfa_bench {

/// Layers are the library's modules, plus the benchmark's own work:
/// generating inputs, computing and checking reference answers (oracle),
/// and the load generator waiting for the next due time.  Time in the
/// root spans themselves is the unattributed remainder.
enum class Layer : std::uint8_t {
  kRoot,
  kAutomata,
  kBuild,
  kScan,
  kPool,
  kServe,
  kLoadgen,
  kOracle,
  kInputs,
};
inline constexpr int kNumLayers = 9;
const char* layer_name(Layer layer);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  const char* name = "";
  std::uint64_t tag = 0;  // workload-defined (engine, pattern index, ...)
  Layer layer = Layer::kRoot;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Main thread only: open a span under the innermost open one.
  std::uint64_t begin(Layer layer, const char* name, std::uint64_t tag,
                      std::uint64_t request);
  void end(std::uint64_t id);
  /// Any thread: a finished span under `parent`.
  void record(std::uint64_t parent, Layer layer, const char* name,
              std::uint64_t tag, std::int64_t t0, std::int64_t t1);

  /// All spans recorded so far (open ones excluded), ordered by id.
  std::vector<Span> spans() const;
  std::uint64_t dropped() const;

 private:
  Tracer() = default;
  void store(const Span& span);

  bool enabled_ = false;
  std::atomic<std::uint64_t> last_id_{0};
  std::vector<Span> open_;  // main-thread stack
  mutable std::mutex mutex_;
  std::vector<Span> done_;     // guarded by mutex_
  std::uint64_t dropped_ = 0;  // guarded by mutex_
};

/// RAII span on the main thread; free when tracing is off.
class Scope {
 public:
  Scope(Layer layer, const char* name, std::uint64_t tag = 0,
        std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
};

/// Self time per layer (ns) over the given spans.  A span's self time is
/// its duration minus the union of its children's intervals.  Children
/// that overlap (chunks running in parallel) share that union in
/// proportion to their durations, so the layers of one tree add up to the
/// root's duration: parallel work is charged as the wall time it covered.
struct Ledger {
  double self_ns[kNumLayers] = {};
};
Ledger ledger(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microseconds).
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

/// Forwarding executor: a pool-layer span per dispatch and a scan-layer
/// span per chunk body, parented to the dispatch across threads.
class TimedExecutor final : public sfa::scan::Executor {
 public:
  explicit TimedExecutor(sfa::scan::Executor& inner) : inner_(inner) {}
  void for_chunks(unsigned chunks, const sfa::scan::ChunkBody& body) override;
  sfa::scan::ExecutorStats stats() const override { return inner_.stats(); }

 private:
  sfa::scan::Executor& inner_;
};

/// Forwarding engine: pass 1 (scan_chunks) and each compose step
/// (chunk_exit) get their own scan-layer spans, tagged with `tag`.
class TimedEngine final : public sfa::scan::ScanEngine {
 public:
  TimedEngine(sfa::scan::ScanEngine& inner, std::uint64_t tag)
      : inner_(inner), tag_(tag) {}

  sfa::scan::EngineId id() const override { return inner_.id(); }
  std::uint32_t start_state() const override { return inner_.start_state(); }
  bool accepting(std::uint32_t q) const override { return inner_.accepting(q); }
  const Dfa* rescan_dfa() const override { return inner_.rescan_dfa(); }
  void scan_chunks(
      const Symbol* data,
      const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
      sfa::scan::Executor& exec) override;
  std::uint32_t chunk_exit(unsigned c, std::uint32_t q,
                           const Symbol* data) override;

 private:
  sfa::scan::ScanEngine& inner_;
  const std::uint64_t tag_;
};

}  // namespace sfa_bench
