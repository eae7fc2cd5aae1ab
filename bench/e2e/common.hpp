// Shared pieces of the end-to-end benchmark (sfa_bench): the clock, a
// bench-local RNG and input generators, latency statistics, the metric
// table every run prints, and the interface each workload implements.
//
// The generators are copies, not calls into src/ or tests/harness/: a change
// to the library or the test harness must never change what a workload
// feeds the library, or two commits would be measured on different inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sfa/automata/dfa.hpp"

namespace sfa_bench {

using sfa::Dfa;
using sfa::Symbol;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Adds the wall time of its scope to `total_s`.
class AddElapsed {
 public:
  explicit AddElapsed(double& total_s) : total_s_(total_s), t0_(now_ns()) {}
  ~AddElapsed() { total_s_ += seconds_since(t0_); }
  AddElapsed(const AddElapsed&) = delete;
  AddElapsed& operator=(const AddElapsed&) = delete;

 private:
  double& total_s_;
  const std::int64_t t0_;
};

/// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) {
      std::uint64_t z = (seed += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound) {
    return bound <= 1 ? 0
                      : static_cast<std::uint64_t>(
                            (static_cast<unsigned __int128>(next()) * bound) >>
                            64);
  }

  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Input classes (the three the matching engines are told apart by).
enum class InputClass { kLow, kHigh, kAdversarial };
inline constexpr InputClass kInputClasses[] = {
    InputClass::kLow, InputClass::kHigh, InputClass::kAdversarial};
const char* class_name(InputClass c);

/// `len` symbols of class `c` over `dfa`'s alphabet:
///   low entropy — an 8-symbol motif over 2 effective symbols, repeated;
///   high entropy — uniform over all symbols;
///   adversarial for narrowing — uniform over the symbols whose image
///   {delta(q, a) : q} is widest, so chunk-entry sets shrink the least.
std::vector<Symbol> make_input(InputClass c, const Dfa& dfa, Rng& rng,
                               std::size_t len);

/// FNV-1a over raw bytes, chained through `h` — the input digest a run
/// prints so two runs can show they fed the library the same inputs.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// The highest of p90 / p99 / p99.9 with at least ten samples beyond it
/// (0 when even p90 lacks them).
double supported_tail_percentile(std::size_t samples);

/// Metric values by name.  The run prints every name of the tables in
/// sfa_bench.cpp; a workload fills the ones its layers exercise.
using Values = std::map<std::string, double>;

/// What one measured phase produced.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Work completed per second (per workload: SFA states, input bytes of
  /// the engine slowest against its reference rate, or closed-loop
  /// requests).
  double throughput = 0;
  /// Operation latency: median and the tail_percentile over op_samples,
  /// which are each pattern's median build time, each scan call's median
  /// time, or each closed-loop serve request's latency.
  double op_p50_ms = 0;
  double op_tail_ms = 0;
  double tail_percentile = 0;
  std::size_t op_samples = 0;
  /// Resident bytes of the automata the workload holds.
  double sfa_resident_mb = 0;
};

struct RunConfig {
  std::uint64_t seed = 1;
  bool smoke = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Drop any previous set-up and rebuild inputs, automata and reference
  /// answers from the seed.  Mismatches against pinned counts are added to
  /// setup_failures(); the time spent in library calls (compiling
  /// patterns, prebuilding SFAs, warming a cache) goes to
  /// library_setup_s().
  virtual void setup() = 0;
  /// Run the measured loop for about `seconds` of work.
  virtual Phase measure(double seconds) = 0;
  /// Per-layer values of the last measure() call plus the set-up before it.
  virtual void layer_values(Values& out) const = 0;
  /// Digest of the generated inputs of the last setup().
  virtual std::uint64_t input_digest() const = 0;
  std::uint64_t setup_failures() const { return setup_failures_; }
  /// Seconds the last setup() spent in library calls: what a user of the
  /// library pays before the first operation.  Generating inputs and
  /// reference answers is the benchmark's own work and is left out.
  double library_setup_s() const { return library_setup_s_; }

 protected:
  std::uint64_t setup_failures_ = 0;
  double library_setup_s_ = 0;
};

std::unique_ptr<Workload> make_build_workload(const std::string& name,
                                              const RunConfig& config);
std::unique_ptr<Workload> make_scan_workload(const RunConfig& config);
std::unique_ptr<Workload> make_serve_workload(const std::string& name,
                                              const RunConfig& config);

/// Fill the latency fields of `phase` from every operation's latency.
void set_latency(Phase& phase, const std::vector<double>& op_ms,
                 double tail_percentile);

/// Rounds of a fixed mix fit into a time budget: keep going while the
/// average round so far still fits, and always run at least one.
inline bool another_round_fits(unsigned rounds_done, double elapsed_s,
                               double budget_s) {
  if (rounds_done == 0) return true;
  return elapsed_s + elapsed_s / rounds_done <= budget_s;
}

double peak_rss_mb();

}  // namespace sfa_bench
