#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sfa_bench {

const char* class_name(InputClass c) {
  switch (c) {
    case InputClass::kLow: return "low";
    case InputClass::kHigh: return "high";
    case InputClass::kAdversarial: return "adv";
  }
  return "?";
}

namespace {

std::vector<Symbol> low_entropy_input(Rng& rng, std::size_t len) {
  constexpr unsigned kEffectiveSymbols = 2;
  constexpr std::size_t kMotifLength = 8;
  Symbol motif[kMotifLength];
  for (auto& s : motif) s = static_cast<Symbol>(rng.below(kEffectiveSymbols));
  std::vector<Symbol> out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = motif[i % kMotifLength];
  return out;
}

std::vector<Symbol> high_entropy_input(Rng& rng, unsigned k, std::size_t len) {
  std::vector<Symbol> out(len);
  for (auto& s : out) s = static_cast<Symbol>(rng.below(k));
  return out;
}

std::vector<Symbol> adversarial_input(const Dfa& dfa, Rng& rng,
                                      std::size_t len) {
  const unsigned k = dfa.num_symbols();
  std::vector<std::size_t> image(k, 0);
  std::vector<char> seen(dfa.size());
  for (unsigned a = 0; a < k; ++a) {
    std::fill(seen.begin(), seen.end(), 0);
    for (Dfa::StateId q = 0; q < dfa.size(); ++q) {
      const Dfa::StateId t = dfa.transition(q, static_cast<Symbol>(a));
      image[a] += seen[t] == 0;
      seen[t] = 1;
    }
  }
  const std::size_t widest = *std::max_element(image.begin(), image.end());
  std::vector<Symbol> candidates;
  for (unsigned a = 0; a < k; ++a)
    if (image[a] == widest) candidates.push_back(static_cast<Symbol>(a));
  std::vector<Symbol> out(len);
  for (auto& s : out) s = candidates[rng.below(candidates.size())];
  return out;
}

}  // namespace

std::vector<Symbol> make_input(InputClass c, const Dfa& dfa, Rng& rng,
                               std::size_t len) {
  switch (c) {
    case InputClass::kLow: return low_entropy_input(rng, len);
    case InputClass::kHigh: return high_entropy_input(rng, dfa.num_symbols(), len);
    case InputClass::kAdversarial: return adversarial_input(dfa, rng, len);
  }
  return {};
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double supported_tail_percentile(std::size_t samples) {
  for (double p : {99.9, 99.0, 90.0})
    if ((1.0 - p / 100.0) * static_cast<double>(samples) >= 10.0) return p;
  return 0;
}

void set_latency(Phase& phase, const std::vector<double>& op_ms,
                 double tail_percentile) {
  phase.op_p50_ms = percentile(op_ms, 50);
  phase.op_tail_ms = percentile(op_ms, tail_percentile);
  phase.tail_percentile = tail_percentile;
  phase.op_samples = op_ms.size();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace sfa_bench
