#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

namespace sfa_bench {

namespace {

// Spans beyond this are dropped and counted, which fails the ledger check
// rather than growing without bound.
constexpr std::size_t kMaxSpans = std::size_t{1} << 22;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = ++next;
  return mine;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRoot: return "unattributed";
    case Layer::kAutomata: return "automata";
    case Layer::kBuild: return "build";
    case Layer::kScan: return "scan";
    case Layer::kPool: return "pool";
    case Layer::kServe: return "serve";
    case Layer::kLoadgen: return "loadgen";
    case Layer::kOracle: return "oracle";
    case Layer::kInputs: return "inputs";
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::begin(Layer layer, const char* name, std::uint64_t tag,
                            std::uint64_t request) {
  Span s;
  s.id = ++last_id_;
  s.parent = open_.empty() ? 0 : open_.back().id;
  s.request = request;
  s.name = name;
  s.tag = tag;
  s.layer = layer;
  s.thread = thread_number();
  s.t0 = now_ns();
  open_.push_back(s);
  return s.id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t t1 = now_ns();
  // Scopes nest, so the span to close is always the innermost one.
  if (open_.empty() || open_.back().id != id) return;
  Span s = open_.back();
  open_.pop_back();
  s.t1 = t1;
  store(s);
}

void Tracer::record(std::uint64_t parent, Layer layer, const char* name,
                    std::uint64_t tag, std::int64_t t0, std::int64_t t1) {
  Span s;
  s.id = ++last_id_;
  s.parent = parent;
  s.name = name;
  s.tag = tag;
  s.layer = layer;
  s.thread = thread_number();
  s.t0 = t0;
  s.t1 = t1;
  store(s);
}

void Tracer::store(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (done_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  done_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = done_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

Scope::Scope(Layer layer, const char* name, std::uint64_t tag,
             std::uint64_t request) {
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) id_ = tracer.begin(layer, name, tag, request);
}

Scope::~Scope() {
  if (id_ != 0) Tracer::instance().end(id_);
}

Ledger ledger(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end())
      children[it->second].push_back(i);
    else
      roots.push_back(i);
  }

  Ledger out;
  // Iterative walk: (span, weight) where weight scales the subtree so that
  // overlapping siblings share the wall time they covered.
  std::vector<std::pair<std::size_t, double>> stack;
  for (std::size_t r : roots) stack.emplace_back(r, 1.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  while (!stack.empty()) {
    const auto [i, weight] = stack.back();
    stack.pop_back();
    const Span& s = spans[i];
    iv.clear();
    double kids_ns = 0;
    for (std::size_t c : children[i]) {
      const Span& k = spans[c];
      kids_ns += static_cast<double>(k.t1 - k.t0);
      const std::int64_t a = std::max(k.t0, s.t0);
      const std::int64_t b = std::min(k.t1, s.t1);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += static_cast<double>(cur_b - cur_a);
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += static_cast<double>(cur_b - cur_a);
    const double self = static_cast<double>(s.t1 - s.t0) - covered;
    out.self_ns[static_cast<int>(s.layer)] += weight * self;
    const double scale = kids_ns > 0 ? covered / kids_ns : 0.0;
    for (std::size_t c : children[i]) stack.emplace_back(c, weight * scale);
  }
  return out;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                 ",\"parent\":%" PRIu64 ",\"request\":%" PRIu64
                 ",\"tag\":%" PRIu64 "}}\n",
                 i == 0 ? "" : ",", s.name, layer_name(s.layer), s.thread,
                 static_cast<double>(s.t0 - base) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, s.id, s.parent,
                 s.request, s.tag);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void TimedExecutor::for_chunks(unsigned chunks,
                               const sfa::scan::ChunkBody& body) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) {
    inner_.for_chunks(chunks, body);
    return;
  }
  Scope dispatch(Layer::kPool, "dispatch", chunks);
  const std::uint64_t parent = dispatch.id();
  inner_.for_chunks(chunks, [&](unsigned c) {
    const std::int64_t t0 = now_ns();
    body(c);
    tracer.record(parent, Layer::kScan, "chunk", c, t0, now_ns());
  });
}

void TimedEngine::scan_chunks(
    const Symbol* data,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
    sfa::scan::Executor& exec) {
  Scope span(Layer::kScan, "pass1", tag_);
  inner_.scan_chunks(data, ranges, exec);
}

std::uint32_t TimedEngine::chunk_exit(unsigned c, std::uint32_t q,
                                      const Symbol* data) {
  Scope span(Layer::kScan, "compose", tag_);
  return inner_.chunk_exit(c, q, data);
}

}  // namespace sfa_bench
