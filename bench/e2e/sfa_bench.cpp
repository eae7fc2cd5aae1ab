// sfa_bench — the repository's end-to-end benchmark.
//
//   sfa_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out trace.json] [--scale full|smoke]
//
// Workloads: build-prosite, build-compressed, scan-bulk, serve-steady,
// serve-churn (bench/e2e/README.md says why each exists).  One workload
// runs per process.  The seed drives input data, arrival times and set
// popularity; it never changes the pinned pattern lists.
//
// Set-up runs at least five times, and until its library calls have taken
// two seconds; setup_s is the median of those library times.  With
// --trace 0 the measured loop runs for --seconds and the end-to-end metrics
// are printed.
// With --trace 1 the budget is split: an untraced half, then a fresh
// set-up and a traced half, whose spans give the per-layer metrics; the
// difference between the halves is printed as the tracing overhead.
//
// Each metric is printed as `name value unit`; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Any wrong answer
// makes the run exit non-zero.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "sfa/concurrent/scheduler.hpp"
#include "sfa/core/scan/executor.hpp"
#include "sfa/obs/metrics.hpp"
#include "sfa/support/cpu.hpp"
#include "sfa/support/numa.hpp"
#include "sfa/support/timer.hpp"
#include "trace.hpp"

namespace sfa_bench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed by every untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"throughput", "1/s"},      {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},       {"sfa_resident_mb", "MiB"},
    {"peak_rss_mb", "MiB"},     {"setup_s", "s"},
};

// Per-layer metrics, printed by every traced run; a layer the workload
// does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"automata.self_pct", "%"},
    {"build.self_pct", "%"},
    {"scan.self_pct", "%"},
    {"pool.self_pct", "%"},
    {"serve.self_pct", "%"},
    {"loadgen.self_pct", "%"},
    {"oracle.self_pct", "%"},
    {"inputs.self_pct", "%"},
    {"unattributed_pct", "%"},
    {"ledger.error_pct", "%"},
    {"automata.compile_ms", "ms"},
    {"ops.samples", "count"},
    {"trace.overhead.throughput_pct", "%"},
    {"trace.overhead.op_p50_ms_pct", "%"},
    {"trace.overhead.op_tail_ms_pct", "%"},
    {"build.par_states_per_s", "1/s"},
    {"build.seq_states_per_s", "1/s"},
    {"build.efficiency", "ratio"},
    {"build.sfa_states", "count"},
    {"build.delta_reallocs", "count"},
    {"build.hash.lookups", "count"},
    {"build.hash.chain_per_lookup", "ratio"},
    {"build.hash.dup_ratio", "ratio"},
    {"build.hash.cas_failures_per_mlookup", "1/Mlookup"},
    {"build.queue.steals_per_kstate", "1/kstate"},
    {"build.queue.steal_fail_ratio", "ratio"},
    {"build.queue.steal_ns_p50", "ns/steal"},
    {"compress.stw_pct", "%"},
    {"compress.ratio", "ratio"},
    {"compress.mapping_mb", "MiB"},
    {"compress.triggered_ratio", "ratio"},
    {"table.mb", "MiB"},
    {"scan.dfa.ns_per_sym", "ns/sym"},
    {"scan.eager.ns_per_sym", "ns/sym"},
    {"scan.lazy.ns_per_sym", "ns/sym"},
    {"scan.speculative.ns_per_sym", "ns/sym"},
    {"scan.narrowed.ns_per_sym", "ns/sym"},
    {"scan.dfa.low.ns_per_sym", "ns/sym"},
    {"scan.dfa.high.ns_per_sym", "ns/sym"},
    {"scan.dfa.adv.ns_per_sym", "ns/sym"},
    {"scan.eager.low.ns_per_sym", "ns/sym"},
    {"scan.eager.high.ns_per_sym", "ns/sym"},
    {"scan.eager.adv.ns_per_sym", "ns/sym"},
    {"scan.lazy.low.ns_per_sym", "ns/sym"},
    {"scan.lazy.high.ns_per_sym", "ns/sym"},
    {"scan.lazy.adv.ns_per_sym", "ns/sym"},
    {"scan.speculative.low.ns_per_sym", "ns/sym"},
    {"scan.speculative.high.ns_per_sym", "ns/sym"},
    {"scan.speculative.adv.ns_per_sym", "ns/sym"},
    {"scan.narrowed.low.ns_per_sym", "ns/sym"},
    {"scan.narrowed.high.ns_per_sym", "ns/sym"},
    {"scan.narrowed.adv.ns_per_sym", "ns/sym"},
    {"scan.eager.small_table.ns_per_sym", "ns/sym"},
    {"scan.eager.large_table.ns_per_sym", "ns/sym"},
    {"scan.dfa.pass1_ns_per_sym", "ns/sym"},
    {"scan.dfa.compose_us", "us/call"},
    {"scan.dfa.pass2_ns_per_sym", "ns/sym"},
    {"scan.eager.pass1_ns_per_sym", "ns/sym"},
    {"scan.eager.compose_us", "us/call"},
    {"scan.eager.pass2_ns_per_sym", "ns/sym"},
    {"scan.speculative.pass1_ns_per_sym", "ns/sym"},
    {"scan.speculative.compose_us", "us/call"},
    {"scan.speculative.pass2_ns_per_sym", "ns/sym"},
    {"scan.narrowed.pass1_ns_per_sym", "ns/sym"},
    {"scan.narrowed.compose_us", "us/call"},
    {"scan.narrowed.pass2_ns_per_sym", "ns/sym"},
    {"scan.speculative.rematch_ratio", "ratio"},
    {"scan.narrowed.fallback_ratio", "ratio"},
    {"scan.narrowed.entry_states_per_chunk", "states/chunk"},
    {"scan.lazy.hit_ratio", "ratio"},
    {"scan.symbols", "count"},
    {"scan.delta_lookups", "count"},
    {"pool.dispatch_us_p50", "us/dispatch"},
    {"pool.utilization", "ratio"},
    {"pool.imbalance", "ratio"},
    {"pool.wakeups_per_dispatch", "ratio"},
    {"serve.queue_ms_p50", "ms/req"},
    {"serve.queue_ms_p99", "ms/req"},
    {"serve.batch_ms_p50", "ms/batch"},
    {"serve.batch_ms_p99", "ms/batch"},
    {"serve.batch_size_mean", "req/batch"},
    {"serve.open_p50_ms", "ms/req"},
    {"serve.open_p99_ms", "ms/req"},
    {"serve.tail_pct", "%"},
    {"serve.tail_ms", "ms/req"},
    {"serve.samples", "count"},
    {"serve.miss_batch_ms_p50", "ms/batch"},
    {"serve.hit_batch_ms_p50", "ms/batch"},
    {"serve.pool.dispatches_per_request", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.resident_mb", "MiB"},
    {"loadgen.late_us_p99", "us/wake"},
};

constexpr int kMmapThresholdBytes = 32 << 20;  // glibc's largest
constexpr int kTrimThresholdBytes = 1 << 30;

constexpr int kMinSetups = 5;
constexpr std::size_t kMaxSetups = 40;
constexpr double kSetupSeconds = 2.0;

constexpr const char* kWorkloads[] = {"build-prosite", "build-compressed",
                                      "scan-bulk", "serve-steady",
                                      "serve-churn"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sfa_bench: %s\nusage: sfa_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out FILE] "
               "[--scale full|smoke]\nworkloads:",
               why);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 600))
        usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--scale") {
      if (v != "full" && v != "smoke") usage("--scale takes full or smoke");
      a.smoke = v == "smoke";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// glibc moves its mmap threshold up to the size of any mmapped block the
// process frees, and gives heap memory back to the kernel past a trim
// threshold.  Which allocations then fault in fresh pages depends on the
// order of earlier frees: one seed of serve-steady took 115k or 370k page
// faults from run to run, and its median latency moved by a factor of
// four with them.  Fixed thresholds make every run allocate the same way.
void fix_malloc_thresholds() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes);
#endif
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  const RunConfig config{a.seed, a.smoke};
  if (auto w = make_build_workload(a.workload, config)) return w;
  if (a.workload == "scan-bulk") return make_scan_workload(config);
  return make_serve_workload(a.workload, config);
}

struct Output {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<MetricDef, double>> metrics;
};

void print(const Output& out) {
  for (const auto& [def, value] : out.metrics)
    std::printf("%s %.6g %s\n", def.name, value, def.unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [def, value] = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", def.name, std::isfinite(value) ? value : 0.0,
                def.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void add_phase(Output& out, const Phase& phase) {
  out.attempted += phase.attempted;
  out.failed += phase.failed;
}

// Timed end-to-end values of one phase.
Values end_to_end(const Phase& phase) {
  return {{"throughput", phase.throughput},
          {"op_p50_ms", phase.op_p50_ms},
          {"op_tail_ms", phase.op_tail_ms},
          {"sfa_resident_mb", phase.sfa_resident_mb}};
}

// Build, hash, queue and lazy-intern counters the library publishes to
// the metrics registry, for every construction in the traced phase —
// including the ones the serve layer runs internally.
void registry_values(Values& v) {
  auto& reg = sfa::obs::Registry::instance();
  auto c = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const double inserts = c("sfa.hash.inserts");
  const double lookups = inserts + c("sfa.hash.duplicates");
  if (lookups > 0) {
    v["build.hash.lookups"] = lookups;
    v["build.hash.chain_per_lookup"] = c("sfa.hash.chain_traversals") / lookups;
    v["build.hash.dup_ratio"] = c("sfa.hash.duplicates") / lookups;
    v["build.hash.cas_failures_per_mlookup"] =
        c("sfa.hash.cas_failures") / lookups * 1e6;
  }
  const double steals = c("sfa.queue.steals");
  const double steal_failures = c("sfa.queue.steal_failures");
  if (inserts > 0) v["build.queue.steals_per_kstate"] = steals / inserts * 1e3;
  if (steals + steal_failures > 0)
    v["build.queue.steal_fail_ratio"] = steal_failures / (steals + steal_failures);
  const auto steal_cycles = reg.histogram("sfa.queue.steal_cycles").snapshot();
  if (steal_cycles.count > 0 && sfa::tsc_hz() > 0)
    v["build.queue.steal_ns_p50"] =
        steal_cycles.quantile(0.5) / sfa::tsc_hz() * 1e9;
  const double hits = c("sfa.lazy.cache_hits");
  const double misses = c("sfa.lazy.cache_misses");
  if (hits + misses > 0) v["scan.lazy.hit_ratio"] = hits / (hits + misses);
}

// Per-layer self-time shares of the traced wall time, the automata time,
// and the ledger check; returns how far the layers miss the wall time (%).
double ledger_values(const std::vector<Span>& spans, double wall_ns,
                     std::uint64_t dropped, Values& layers) {
  const Ledger led = ledger(spans);
  double attributed = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    attributed += led.self_ns[l];
    const Layer layer = static_cast<Layer>(l);
    const std::string name = layer == Layer::kRoot
                                 ? std::string("unattributed_pct")
                                 : std::string(layer_name(layer)) + ".self_pct";
    layers[name] = 100.0 * led.self_ns[l] / wall_ns;
  }
  double compile_ns = 0;
  for (const Span& s : spans)
    if (s.layer == Layer::kAutomata) compile_ns += static_cast<double>(s.t1 - s.t0);
  layers["automata.compile_ms"] = compile_ns * 1e-6;
  const double error =
      dropped != 0 ? 100.0 : 100.0 * std::fabs(attributed - wall_ns) / wall_ns;
  layers["ledger.error_pct"] = error;
  return error;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args);
  if (!workload) usage(("unknown workload " + args.workload).c_str());
  Tracer& tracer = Tracer::instance();

  std::printf("# sfa_bench workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? "smoke" : "full");
  std::printf("# settings: threads=%u chunks=4 scheduler=%s adaptive_chunks=off "
              "pin=%s table_layout=dense hardware_threads=%u "
              "malloc_mmap_threshold=%d malloc_trim_threshold=%d\n",
              std::min(4u, sfa::hardware_threads()),
              sfa::sched::policy_name(sfa::scan::default_scheduler()),
              sfa::pin_mode_name(sfa::scan::default_pin_mode()),
              sfa::hardware_threads(), kMmapThresholdBytes, kTrimThresholdBytes);

  Output out;
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    workload->setup();
    setup_s.push_back(workload->library_setup_s());
    if (workload->setup_failures() != 0) {
      out.attempted += workload->setup_failures();
      out.failed += workload->setup_failures();
    }
  };

  // A single set-up spends 0.1 to 0.4 s in the library, short enough for
  // one slow moment of the host to move it by a third; the median over
  // kSetupSeconds of set-ups is spared that.  It still follows slower
  // swings of a shared host: over five minutes of back-to-back
  // build-compressed set-ups, the medians of 5 s blocks ranged from 65 to
  // 110 ms, with CPU time equal to wall time.
  const int min_setups = args.smoke ? 1 : kMinSetups;
  const double setup_budget_s = args.smoke ? 0 : kSetupSeconds;
  double spent_s = 0;
  while (static_cast<int>(setup_s.size()) < min_setups ||
         (spent_s < setup_budget_s && setup_s.size() < kMaxSetups)) {
    timed_setup();
    spent_s += setup_s.back();
  }
  const Phase untraced =
      workload->measure(args.trace ? args.seconds / 2 : args.seconds);
  add_phase(out, untraced);
  Values e2e = end_to_end(untraced);
  e2e["peak_rss_mb"] = peak_rss_mb();

  Values layers;
  if (args.trace) {
    sfa::obs::Registry::instance().reset();
    const sfa::scan::ExecutorStats pool0 =
        sfa::scan::default_executor().stats();
    // The wall time is taken around the whole traced segment, not from the
    // span tree, so work outside the root spans, spans whose parent was
    // lost, and double-counted overlaps all show as a ledger error.
    const std::int64_t wall0 = now_ns();
    tracer.set_enabled(true);
    {
      Scope root(Layer::kRoot, "setup");
      timed_setup();
    }
    Phase traced;
    {
      Scope root(Layer::kRoot, "measure");
      traced = workload->measure(args.seconds / 2);
    }
    tracer.set_enabled(false);
    const std::int64_t wall_ns = now_ns() - wall0;
    add_phase(out, traced);

    workload->layer_values(layers);
    registry_values(layers);
    const sfa::scan::ExecutorStats pool1 = sfa::scan::default_executor().stats();
    if (pool1.pool_dispatches > pool0.pool_dispatches)
      layers["pool.wakeups_per_dispatch"] =
          static_cast<double>(pool1.pool_wakeups - pool0.pool_wakeups) /
          static_cast<double>(pool1.pool_dispatches - pool0.pool_dispatches);

    const std::vector<Span> spans = tracer.spans();
    const double ledger_error = ledger_values(
        spans, static_cast<double>(wall_ns), tracer.dropped(), layers);
    if (ledger_error > 5) {
      std::fprintf(stderr,
                   "sfa_bench: layer self times + unattributed miss the wall "
                   "time by %.2f%% (> 5%%)\n",
                   ledger_error);
      out.correct = false;
    }
    layers["ops.samples"] = static_cast<double>(untraced.op_samples);
    const Values traced_e2e = end_to_end(traced);
    for (const char* m : {"throughput", "op_p50_ms", "op_tail_ms"})
      layers[std::string("trace.overhead.") + m + "_pct"] =
          100.0 * (traced_e2e.at(m) - e2e.at(m)) / e2e.at(m);
    if (!args.trace_out.empty() && !write_chrome_trace(spans, args.trace_out))
      std::fprintf(stderr, "sfa_bench: cannot write %s\n", args.trace_out.c_str());
    std::printf("# untraced half:");
    for (const auto& [name, value] : e2e)
      std::printf(" %s=%.6g", name.c_str(), value);
    std::printf("\n");
  }
  e2e["setup_s"] = percentile(setup_s, 50);

  std::printf("# set-ups (s):");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n# inputs digest: %016llx\n",
              static_cast<unsigned long long>(workload->input_digest()));
  std::printf("# op samples: %zu (op_tail_ms is p%g)\n", untraced.op_samples,
              untraced.tail_percentile);
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) {
      const auto it = layers.find(def.name);
      out.metrics.push_back({def, it == layers.end() ? 0.0 : it->second});
    }
  } else {
    for (const MetricDef& def : kEndToEnd) out.metrics.push_back({def, e2e.at(def.name)});
  }
  if (out.failed != 0) out.correct = false;
  if (out.attempted == 0) {  // nothing ran: count the run itself as failed
    out.attempted = out.failed = 1;
    out.correct = false;
  }
  print(out);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace sfa_bench

int main(int argc, char** argv) {
  const sfa_bench::Args args = sfa_bench::parse(argc, argv);
  sfa_bench::fix_malloc_thresholds();
  try {
    return sfa_bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfa_bench: %s\n", e.what());
    return 1;
  }
}
