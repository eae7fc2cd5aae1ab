// serve-steady and serve-churn: MatchService under open-loop Poisson
// arrivals at a fixed rate, then a closed loop of back-to-back batches.
//
// The main thread is the load generator: it waits until the next
// request is due, batches every request already due (at most 16), and
// blocks in submit_batch while the pool works.  A request's open-loop
// latency runs from its due time to the completion of its batch, so a
// stall counts against every request that arrived during it.  The closed
// loop stands for as many callers as a batch holds, each waiting for its
// reply: a request is due when its caller's previous reply came back, so
// its latency is its batch's submit_batch time.
//
// The budget is cut into one-second cycles, each an open-loop segment then
// a closed-loop one of a fixed number of batches.  The end-to-end metrics
// come from the closed loop: capacity (the median over cycles, so a burst
// of CPU taken by other tenants of a shared host spoils a cycle, not the
// run) and request latency.  Open-loop latency is a per-layer metric,
// because queueing multiplies every change in the host's speed: on a
// shared 4-vCPU host, over four runs of one commit, the open-loop median
// of serve-steady ranged from 1.07 to 1.83 ms while closed-loop capacity
// ranged from 5070 to 6200 req/s.  Each segment draws its requests from
// its own stream of the seed, so a run replays the same requests however
// fast the host ran the segments before it, and under churn the cache sees
// the same sequence of hits and misses.
//
// serve-steady keeps 8 three-motif sets warm and nothing is constructed.
// Requests are 16 KiB, so a request's scan is short and per-request work
// (batch dispatch, engine set-up, reach tables) takes a large share.  Its
// closed loop stands for 16 callers.
// serve-churn draws 24 single-motif sets with Zipf(1) popularity,
// re-ranked every cycle, against an LRU budget that holds two thirds of
// them, so about one request in six compiles and builds its set:
// construction and eviction sit in the request path.  Its closed loop is
// a single caller, so hits and misses stay apart: the median request is a
// hit and the tail one that builds its set.  (With 16 callers, a batch
// held two or three misses, and the median moved from 12.5 to 16.2 ms
// across three runs.)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "common.hpp"
#include "pinned.hpp"
#include "sfa/core/match.hpp"
#include "sfa/serve/match_service.hpp"
#include "trace.hpp"

namespace sfa_bench {

namespace {

namespace serve = sfa::serve;

struct Traffic {
  // Fixed open-loop arrival rate (requests per second).
  double rate;
  std::size_t request_symbols;
  unsigned inputs_per_class;  // per set
  // Closed loop: batches of `closed_batch` requests, `closed_batches` of
  // them per cycle, about half a second of work on a 4-vCPU host.
  std::size_t closed_batch;
  unsigned closed_batches;
  // Percentile of the closed-loop request latency reported as op_tail_ms.
  double tail_percentile;
};
// serve-steady: 3000 req/s, about half of closed-loop capacity.  The open
// loop forms batches of about two requests on average, each paying a
// pool dispatch, and its median latency is five to six times its median
// batch's.  The tail is p90, not p99: with 256 KiB requests, p99 moved
// twice as much as p90 from run to run.
constexpr Traffic kSteady = {3000, 16 << 10, 8, 16, 200, 90};
// serve-churn: 300 req/s, a budget of two thirds of the working set.  p95
// lies well inside the misses (about one request in six).
constexpr Traffic kChurn = {300, 16 << 10, 16, 1, 400, 95};
constexpr unsigned kSmokeInputsPerClass = 2;
constexpr std::size_t kMaxBatch = 16;  // open loop
// The load generator sleeps until this long before a request is due, then
// spins: a sleeping thread wakes up to about a millisecond late on a
// virtualized host (with a 250 us window, loadgen.late_us_p99 read 300 to
// 600 us), and that delay would be charged to the request.  The pool is
// idle while the generator spins, so the spin takes no CPU from it.
constexpr auto kSpinWindow = std::chrono::milliseconds(2);
constexpr double kCycleSeconds = 1.0;
constexpr std::uint64_t kRankingSeed = 24;
// Share of each cycle spent open loop; the closed loop takes the rest.
constexpr double kOpenShare = 0.5;

// serve-churn draws from the first three only: a lazy request interns its
// own states and never touches the cached SFA whose construction the
// workload puts in the request path.
constexpr serve::EngineChoice kEngines[] = {
    serve::EngineChoice::kEager, serve::EngineChoice::kSpeculative,
    serve::EngineChoice::kNarrowed, serve::EngineChoice::kLazy};
constexpr serve::TaskKind kTasks[] = {
    serve::TaskKind::kAccept, serve::TaskKind::kCount,
    serve::TaskKind::kFindFirst, serve::TaskKind::kFindAll};

struct Reference {
  bool accepted = false;
  std::size_t count = 0;
  std::size_t first = sfa::kNoMatch;
  std::uint64_t position_sum = 0;
};

struct SetData {
  std::vector<serve::PatternSpec> specs;
  std::uint32_t union_dfa_states = 0;
  std::uint32_t sfa_states = 0;
  std::uint64_t handle = 0;
  std::vector<std::vector<Symbol>> inputs;  // class-major
  std::vector<Reference> refs;
};

struct Request {
  double due_s = 0;
  std::uint32_t set = 0;
  std::uint8_t engine = 0;
  std::uint8_t task = 0;
  std::uint16_t input = 0;
};

// Reference answers from one sequential walk of the union DFA.
Reference reference(const Dfa& dfa, const std::vector<Symbol>& in) {
  Reference r;
  Dfa::StateId q = dfa.start();
  for (std::size_t i = 0; i < in.size(); ++i) {
    q = dfa.transition(q, in[i]);
    if (!dfa.accepting(q)) continue;
    ++r.count;
    if (r.first == sfa::kNoMatch) r.first = i + 1;
    r.position_sum += i + 1;
  }
  r.accepted = dfa.accepting(q);
  return r;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(bool churn, const RunConfig& config)
      : churn_(churn), traffic_(churn ? kChurn : kSteady), config_(config) {}

  void setup() override {
    service_.reset();
    sets_.clear();
    setup_failures_ = 0;
    library_setup_s_ = 0;
    serve::ServiceOptions options;
    if (churn_) options.cache.memory_budget_bytes = pinned::kChurnBudgetBytes;
    service_ = std::make_unique<serve::MatchService>(options);

    auto add_set = [&](std::vector<const char*> members,
                       std::uint32_t dfa_states, std::uint32_t sfa_states) {
      SetData set;
      for (const char* text : members)
        set.specs.push_back({text, serve::PatternSyntax::kProsite, text});
      set.union_dfa_states = dfa_states;
      set.sfa_states = sfa_states;
      sets_.push_back(std::move(set));
    };
    if (churn_) {
      for (const pinned::Motif& m : pinned::kChurnSets)
        add_set({m.text}, m.dfa_states, m.sfa_states);
    } else {
      for (const pinned::ServeSet& s : pinned::kSteadySets)
        add_set({s.members[0], s.members[1], s.members[2]}, s.union_dfa_states,
                s.sfa_states);
    }
    Rng rng(config_.seed);
    std::vector<Dfa> dfas;
    {
      Scope span(Layer::kAutomata, "compile_union");
      AddElapsed timed(library_setup_s_);
      for (SetData& set : sets_) {
        dfas.push_back(service_->registry().compile_union(set.specs));
        if (dfas.back().size() != set.union_dfa_states) ++setup_failures_;
        set.handle = service_->register_set(set.specs);
      }
    }
    popularity(0);
    {
      // Warm the cache, least popular first, so that under churn the
      // popular sets start resident.
      Scope span(Layer::kServe, "resolve");
      AddElapsed timed(library_setup_s_);
      for (auto it = rank_to_set_.rbegin(); it != rank_to_set_.rend(); ++it) {
        const SetData& set = sets_[*it];
        const auto entry = service_->resolve(set.handle);
        if (!entry || !entry->sfa || entry->sfa->num_states() != set.sfa_states)
          ++setup_failures_;
      }
    }
    const unsigned per_class =
        config_.smoke ? kSmokeInputsPerClass : traffic_.inputs_per_class;
    {
      Scope span(Layer::kInputs, "inputs");
      digest_ = kFnvBasis;
      for (std::size_t s = 0; s < sets_.size(); ++s) {
        for (InputClass c : kInputClasses)
          for (unsigned i = 0; i < per_class; ++i) {
            sets_[s].inputs.push_back(
                make_input(c, dfas[s], rng, traffic_.request_symbols));
            const auto& in = sets_[s].inputs.back();
            digest_ = fnv1a(digest_, in.data(), in.size());
          }
      }
    }
    Scope span(Layer::kOracle, "reference");
    for (std::size_t s = 0; s < sets_.size(); ++s)
      for (const auto& in : sets_[s].inputs)
        sets_[s].refs.push_back(reference(dfas[s], in));
  }

  Phase measure(double seconds) override {
    Phase phase;
    stats_ = {};
    const std::uint64_t dispatches0 =
        sfa::scan::default_executor().stats().pool_dispatches;
    const serve::SfaCacheStats cache0 = service_->cache().stats();

    // Request streams: one per open-loop segment and one that the
    // fixed-size closed-loop segments share (cycles stay far below 2^20).
    const std::uint64_t streams = config_.seed << 20;
    Rng closed_rng(streams | 0xfffff);
    const unsigned cycles =
        std::max(1u, static_cast<unsigned>(std::lround(seconds / kCycleSeconds)));
    std::vector<double> capacity;
    for (unsigned c = 0; c < cycles; ++c) {
      if (churn_) popularity(c);
      Rng open_rng(streams | c);
      open_loop(seconds / cycles * kOpenShare, open_rng, phase);
      capacity.push_back(closed_loop(closed_rng, phase));
    }
    phase.throughput = percentile(capacity, 50);
    phase.sfa_resident_mb = mean(stats_.resident_bytes) / (1 << 20);
    set_latency(phase, stats_.closed_ms, traffic_.tail_percentile);

    const serve::SfaCacheStats cache1 = service_->cache().stats();
    stats_.dispatches = static_cast<double>(
        sfa::scan::default_executor().stats().pool_dispatches - dispatches0);
    stats_.hits = static_cast<double>(cache1.hits - cache0.hits);
    stats_.lookups = static_cast<double>(
        (cache1.hits + cache1.misses + cache1.disk_hits) -
        (cache0.hits + cache0.misses + cache0.disk_hits));
    stats_.evictions = static_cast<double>(cache1.evictions - cache0.evictions);
    stats_.requests = static_cast<double>(phase.attempted);
    return phase;
  }

  void layer_values(Values& out) const override {
    out["serve.queue_ms_p50"] = percentile(stats_.queue_ms, 50);
    out["serve.queue_ms_p99"] = percentile(stats_.queue_ms, 99);
    out["serve.batch_ms_p50"] = percentile(stats_.batch_ms, 50);
    out["serve.batch_ms_p99"] = percentile(stats_.batch_ms, 99);
    out["serve.batch_size_mean"] = mean(stats_.batch_size);
    out["serve.open_p50_ms"] = percentile(stats_.latency_ms, 50);
    out["serve.open_p99_ms"] = percentile(stats_.latency_ms, 99);
    const double tail = supported_tail_percentile(stats_.latency_ms.size());
    out["serve.tail_pct"] = tail;
    out["serve.tail_ms"] = tail > 0 ? percentile(stats_.latency_ms, tail) : 0;
    out["serve.samples"] = static_cast<double>(stats_.latency_ms.size());
    out["serve.miss_batch_ms_p50"] = percentile(stats_.miss_batch_ms, 50);
    out["serve.hit_batch_ms_p50"] = percentile(stats_.hit_batch_ms, 50);
    out["serve.pool.dispatches_per_request"] =
        stats_.dispatches / stats_.requests;
    out["cache.hit_ratio"] = stats_.lookups > 0 ? stats_.hits / stats_.lookups : 0;
    out["cache.evictions"] = stats_.evictions;
    out["cache.resident_mb"] =
        static_cast<double>(service_->cache().stats().resident_bytes) /
        (1 << 20);
    out["loadgen.late_us_p99"] = percentile(stats_.late_us, 99);
    double states = 0;
    for (const SetData& set : sets_) states += set.sfa_states;
    out["build.sfa_states"] = states;
  }

  std::uint64_t input_digest() const override { return digest_; }

 private:
  struct Stats {
    std::vector<double> latency_ms, queue_ms, batch_ms, batch_size,
        closed_ms, miss_batch_ms, hit_batch_ms, late_us;
    std::vector<double> resident_bytes;  // after each open-loop batch
    double dispatches = 0, hits = 0, lookups = 0, evictions = 0, requests = 0;
  };

  // serve-steady: uniform over the sets.  serve-churn: Zipf(1) over a
  // ranking re-drawn every cycle from a fixed sequence.  Which sets are hot
  // decides what a request costs (their automata differ), so the ranking is
  // pinned like the pattern lists; the seed moves only the draws.
  void popularity(unsigned cycle) {
    Rng rng(kRankingSeed + cycle);
    rank_to_set_.resize(sets_.size());
    for (std::size_t i = 0; i < sets_.size(); ++i)
      rank_to_set_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = sets_.size(); i > 1; --i)
      std::swap(rank_to_set_[i - 1], rank_to_set_[rng.below(i)]);
    cdf_.clear();
    double total = 0;
    for (std::size_t r = 0; r < sets_.size(); ++r) {
      total += churn_ ? 1.0 / static_cast<double>(r + 1) : 1.0;
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Request draw(Rng& rng) const {
    Request r;
    const double u = rng.unit();
    const std::size_t rank = std::min<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        cdf_.size() - 1);
    r.set = rank_to_set_[rank];
    r.engine = static_cast<std::uint8_t>(rng.below(churn_ ? 3 : 4));
    r.task = static_cast<std::uint8_t>(rng.below(4));
    r.input = static_cast<std::uint16_t>(rng.below(sets_[r.set].inputs.size()));
    return r;
  }

  struct Batch {
    std::int64_t t0 = 0, t1 = 0;  // around submit_batch
    bool missed = false;          // the cache missed during it
    double ms() const { return static_cast<double>(t1 - t0) * 1e-6; }
  };

  // Submit one batch and check every response.
  Batch submit(const std::vector<Request>& reqs, std::size_t begin,
               std::size_t end, Phase& phase) {
    std::vector<serve::MatchRequest> batch;
    batch.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const Request& r = reqs[i];
      serve::MatchRequest m;
      m.set = sets_[r.set].handle;
      m.engine = kEngines[r.engine];
      m.task = kTasks[r.task];
      const auto& in = sets_[r.set].inputs[r.input];
      m.data = in.data();
      m.len = in.size();
      batch.push_back(m);
    }
    const std::uint64_t misses0 = service_->cache().stats().misses;
    std::vector<serve::MatchResponse> responses;
    Batch b;
    {
      Scope span(Layer::kServe, "submit_batch", end - begin,
                 phase.attempted + 1);
      b.t0 = now_ns();
      responses = service_->submit_batch(batch);
      b.t1 = now_ns();
    }
    b.missed = service_->cache().stats().misses != misses0;
    Scope span(Layer::kOracle, "check");
    for (std::size_t i = begin; i < end; ++i) {
      ++phase.attempted;
      if (!correct(reqs[i], responses[i - begin])) ++phase.failed;
    }
    return b;
  }

  bool correct(const Request& r, const serve::MatchResponse& resp) const {
    if (!resp.ok) return false;
    const Reference& ref = sets_[r.set].refs[r.input];
    switch (kTasks[r.task]) {
      case serve::TaskKind::kAccept: return resp.accepted == ref.accepted;
      case serve::TaskKind::kCount: return resp.count == ref.count;
      case serve::TaskKind::kFindFirst: return resp.first == ref.first;
      case serve::TaskKind::kFindAll: {
        if (resp.positions.size() != ref.count) return false;
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < resp.positions.size(); ++i) {
          if (i > 0 && resp.positions[i] <= resp.positions[i - 1]) return false;
          sum += resp.positions[i];
        }
        return sum == ref.position_sum;
      }
    }
    return false;
  }

  // Poisson arrivals for `seconds`.
  void open_loop(double seconds, Rng& rng, Phase& phase) {
    std::vector<Request> reqs;
    {
      Scope span(Layer::kInputs, "arrivals");
      for (double due = 0;;) {
        due += -std::log(1.0 - rng.unit()) / traffic_.rate;
        if (due >= seconds) break;
        Request r = draw(rng);
        r.due_s = due;
        reqs.push_back(r);
      }
    }
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    const std::int64_t start_ns = now_ns();
    auto since_start = [&] { return seconds_since(start_ns); };
    for (std::size_t next = 0; next < reqs.size();) {
      double now = since_start();
      if (reqs[next].due_s > now) {
        Scope span(Layer::kLoadgen, "idle");
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(reqs[next].due_s));
        if (due - Clock::now() > kSpinWindow)
          std::this_thread::sleep_until(due - kSpinWindow);
        while (Clock::now() < due) {
        }
        now = since_start();
        stats_.late_us.push_back((now - reqs[next].due_s) * 1e6);
      }
      std::size_t end = next + 1;
      while (end < reqs.size() && end - next < kMaxBatch &&
             reqs[end].due_s <= now)
        ++end;
      const Batch b = submit(reqs, next, end, phase);
      const double begun = static_cast<double>(b.t0 - start_ns) * 1e-9;
      const double done = static_cast<double>(b.t1 - start_ns) * 1e-9;
      for (std::size_t i = next; i < end; ++i) {
        stats_.latency_ms.push_back((done - reqs[i].due_s) * 1e3);
        stats_.queue_ms.push_back((begun - reqs[i].due_s) * 1e3);
      }
      stats_.batch_ms.push_back(b.ms());
      stats_.batch_size.push_back(static_cast<double>(end - next));
      (b.missed ? stats_.miss_batch_ms : stats_.hit_batch_ms).push_back(b.ms());
      stats_.resident_bytes.push_back(
          static_cast<double>(service_->cache().stats().resident_bytes));
      next = end;
    }
  }

  // Back-to-back batches; returns requests per second.  Every request of
  // a batch waits for the whole batch, so each batch adds its time once
  // per request to the latency samples.
  double closed_loop(Rng& rng, Phase& phase) {
    std::vector<Request> reqs(traffic_.closed_batch);
    double busy = 0, served = 0;
    for (unsigned i = 0; i < traffic_.closed_batches; ++i) {
      {
        Scope span(Layer::kInputs, "requests");
        for (Request& r : reqs) r = draw(rng);
      }
      const Batch b = submit(reqs, 0, reqs.size(), phase);
      busy += b.ms() * 1e-3;
      served += static_cast<double>(reqs.size());
      stats_.closed_ms.insert(stats_.closed_ms.end(), reqs.size(), b.ms());
    }
    return served / busy;
  }

  const bool churn_;
  const Traffic traffic_;
  const RunConfig config_;
  std::unique_ptr<serve::MatchService> service_;
  std::vector<SetData> sets_;
  std::vector<std::uint32_t> rank_to_set_;
  std::vector<double> cdf_;
  std::uint64_t digest_ = 0;
  Stats stats_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const std::string& name,
                                              const RunConfig& config) {
  if (name == "serve-steady")
    return std::make_unique<ServeWorkload>(false, config);
  if (name == "serve-churn")
    return std::make_unique<ServeWorkload>(true, config);
  return nullptr;
}

}  // namespace sfa_bench
