// build-prosite and build-compressed: rounds of SFA construction over a
// pinned pattern list, timed around each build_sfa call.
//
// build-prosite is the paper's headline (Fig. 4/5): interning, hashing,
// transposition and work-stealing do almost all the work, scan and serve
// are bypassed.  build-compressed runs the same construction with a memory
// threshold every pattern crosses, so the three-phase compression store
// (§III-C, Table II) writes beside interning.
#include <algorithm>
#include <exception>

#include "common.hpp"
#include "pinned.hpp"
#include "sfa/core/build.hpp"
#include "sfa/core/match.hpp"
#include "sfa/core/scan/tasks.hpp"
#include "sfa/prosite/patterns.hpp"
#include "sfa/prosite/prosite_parser.hpp"
#include "sfa/support/cpu.hpp"
#include "trace.hpp"

namespace sfa_bench {

namespace {

using sfa::BuildMethod;
using sfa::BuildOptions;
using sfa::BuildStats;
using sfa::Sfa;

constexpr std::size_t kProbeSymbols = 64 << 10;
constexpr unsigned kProbeChunks = 4;

struct Item {
  Dfa dfa;
  std::uint32_t sfa_states;
  bool accepted = false;  // reference answers on the probe
  std::size_t count = 0;
};

/// Sums over the builds of one method in the last measured phase.
struct Totals {
  unsigned rounds = 0;
  double seconds = 0;
  double states = 0;
  double compression_seconds = 0;
  double mapping_uncompressed = 0;
  double mapping_stored = 0;
  double table_bytes = 0;
  double builds = 0;
  double triggered = 0;
  double delta_reallocs = 0;
};

class BuildWorkload final : public Workload {
 public:
  BuildWorkload(bool compressed, const RunConfig& config)
      : compressed_(compressed),
        config_(config),
        threads_(std::min(4u, sfa::hardware_threads())) {}

  void setup() override {
    items_.clear();
    setup_failures_ = 0;
    library_setup_s_ = 0;
    {
      Scope span(Layer::kAutomata, "compile");
      AddElapsed timed(library_setup_s_);
      if (compressed_) {
        for (const auto& r : pinned::kCompressedR)
          add(sfa::make_r_benchmark_dfa(r.length, pinned::kRClassSeed),
              r.dfa_states, r.sfa_states);
        for (const auto& m : pinned::kCompressedProsite)
          add(sfa::compile_prosite(m.text), m.dfa_states, m.sfa_states);
      } else {
        for (const auto& m : pinned::kBuildProsite)
          add(sfa::compile_prosite(m.text), m.dfa_states, m.sfa_states);
      }
    }
    if (config_.smoke && items_.size() > 3)
      items_.erase(items_.begin() + 3, items_.end());
    {
      Scope span(Layer::kInputs, "probe");
      Rng rng(config_.seed);
      probe_ = make_input(InputClass::kHigh, items_.front().dfa, rng,
                          kProbeSymbols);
      digest_ = fnv1a(kFnvBasis, probe_.data(), probe_.size());
    }
    Scope span(Layer::kOracle, "reference");
    for (Item& item : items_) {
      item.accepted = sfa::match_sequential(item.dfa, probe_).accepted;
      item.count =
          item.dfa.count_accepting_prefixes(probe_.data(), probe_.size());
    }
  }

  Phase measure(double seconds) override {
    Phase phase;
    par_ = {};
    seq_ = {};
    item_s_.assign(items_.size(), {});
    const bool traced = Tracer::instance().enabled();
    // The traced run of build-prosite also times one 1-thread kTransposed
    // round, the sequential baseline of the efficiency figure; the parallel
    // rounds leave it about half of the budget.
    const bool with_seq = traced && !compressed_;
    const double par_budget = with_seq ? seconds / 2 : seconds;
    const std::int64_t t0 = now_ns();
    while (another_round_fits(par_.rounds, seconds_since(t0), par_budget)) {
      run_round(BuildMethod::kParallel, par_, phase);
    }
    if (with_seq) run_round(BuildMethod::kTransposed, seq_, phase);
    if (par_.builds == 0) return phase;  // every build threw
    // Rate and latencies come from each pattern's median build time, so
    // one disturbed round does not move them.  (Pooled over every build,
    // the median fell between two patterns of different sizes and jumped
    // between them from run to run.)
    double states = 0, seconds_sum = 0;
    std::vector<double> item_ms;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (item_s_[i].empty()) continue;
      const double s = percentile(item_s_[i], 50);
      states += items_[i].sfa_states;
      seconds_sum += s;
      item_ms.push_back(s * 1e3);
    }
    phase.throughput = states / seconds_sum;
    set_latency(phase, item_ms, 90);
    phase.sfa_resident_mb =
        (par_.table_bytes + par_.mapping_stored) / par_.rounds / (1 << 20);
    return phase;
  }

  void layer_values(Values& out) const override {
    if (par_.builds == 0) return;
    const double per_round = 1.0 / par_.rounds;
    out["build.par_states_per_s"] = par_.states / par_.seconds;
    if (seq_.builds != 0) {
      out["build.seq_states_per_s"] = seq_.states / seq_.seconds;
      out["build.efficiency"] =
          seq_.seconds / (threads_ * par_.seconds * per_round);
      out["build.delta_reallocs"] = seq_.delta_reallocs;
    }
    double pinned_states = 0;
    for (const Item& item : items_) pinned_states += item.sfa_states;
    out["build.sfa_states"] = pinned_states;
    out["compress.stw_pct"] = 100.0 * par_.compression_seconds / par_.seconds;
    out["compress.ratio"] = par_.mapping_stored > 0 && par_.triggered > 0
                                ? par_.mapping_uncompressed / par_.mapping_stored
                                : 0.0;
    out["compress.mapping_mb"] = par_.mapping_stored * per_round / (1 << 20);
    out["compress.triggered_ratio"] = par_.triggered / par_.builds;
    out["table.mb"] = par_.table_bytes * per_round / (1 << 20);
  }

  std::uint64_t input_digest() const override { return digest_; }

 private:
  void add(Dfa dfa, std::uint32_t dfa_states, std::uint32_t sfa_states) {
    if (dfa.size() != dfa_states) ++setup_failures_;
    items_.push_back({std::move(dfa), sfa_states});
  }

  void run_round(BuildMethod method, Totals& totals, Phase& phase) {
    const bool parallel = method == BuildMethod::kParallel;
    Scope round(Layer::kRoot, parallel ? "round" : "seq-round", totals.rounds);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Item& item = items_[i];
      BuildOptions options;
      options.num_threads = parallel ? threads_ : 1;
      options.keep_mappings = true;
      if (compressed_)
        options.memory_threshold_bytes = pinned::kCompressThresholdBytes;
      BuildStats stats;
      Sfa sfa;
      ++phase.attempted;
      const std::int64_t t0 = now_ns();
      try {
        Scope span(Layer::kBuild, parallel ? "build_sfa" : "build_sfa_seq", i,
                   phase.attempted);
        sfa = sfa::build_sfa(item.dfa, method, options, &stats);
      } catch (const std::exception&) {
        ++phase.failed;
        continue;
      }
      const double s = seconds_since(t0);
      if (parallel) item_s_[i].push_back(s);
      totals.seconds += s;
      totals.states += static_cast<double>(stats.sfa_states);
      totals.compression_seconds += stats.compression_seconds;
      totals.mapping_uncompressed +=
          static_cast<double>(stats.mapping_bytes_uncompressed);
      totals.mapping_stored += static_cast<double>(sfa.mapping_store_bytes());
      totals.table_bytes += static_cast<double>(sfa.table_bytes());
      totals.builds += 1;
      totals.triggered += stats.compression_triggered ? 1 : 0;
      totals.delta_reallocs += static_cast<double>(stats.delta_reallocations);
      if (!verify(item, sfa, stats)) ++phase.failed;
    }
    ++totals.rounds;
  }

  // Exactly the pinned state count, compression where the workload demands
  // it, and the DFA's answers on the seeded probe.
  bool verify(const Item& item, const Sfa& sfa, const BuildStats& stats) {
    Scope span(Layer::kOracle, "verify");
    if (sfa.num_states() != item.sfa_states) return false;
    if (compressed_ && !stats.compression_triggered) return false;
    sfa::scan::EagerEngine engine(sfa, &item.dfa);
    sfa::scan::Executor& exec = sfa::scan::default_executor();
    const bool accepted = sfa::scan::run_accept(engine, exec, probe_.data(),
                                                probe_.size(), kProbeChunks)
                              .accepted;
    const std::size_t count = sfa::scan::run_count(
        engine, exec, probe_.data(), probe_.size(), kProbeChunks);
    return accepted == item.accepted && count == item.count;
  }

  const bool compressed_;
  const RunConfig config_;
  const unsigned threads_;
  std::vector<Item> items_;
  std::vector<Symbol> probe_;
  std::uint64_t digest_ = 0;
  Totals par_;
  Totals seq_;
  std::vector<std::vector<double>> item_s_;  // per pattern, one per round
};

}  // namespace

std::unique_ptr<Workload> make_build_workload(const std::string& name,
                                              const RunConfig& config) {
  if (name == "build-prosite")
    return std::make_unique<BuildWorkload>(false, config);
  if (name == "build-compressed")
    return std::make_unique<BuildWorkload>(true, config);
  return nullptr;
}

}  // namespace sfa_bench
