#include "core/params.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mpch::core {

LineParams LineParams::make(std::uint64_t n, std::uint64_t u, std::uint64_t v, std::uint64_t w) {
  if (n == 0 || u == 0 || v == 0 || w == 0) {
    throw std::invalid_argument("LineParams: all of n,u,v,w must be positive");
  }
  LineParams p;
  p.n = n;
  p.u = u;
  p.v = v;
  p.w = w;
  p.index_bits = util::ceil_log2(w + 2);  // node indices run 1..w in queries
  p.ell_bits = util::ceil_log2(v + 1);    // ℓ ranges over [v]
  if (p.index_bits + 2 * u > n) {
    throw std::invalid_argument("LineParams: query layout (i:" + std::to_string(p.index_bits) +
                                " + 2u:" + std::to_string(2 * u) + ") exceeds n=" +
                                std::to_string(n));
  }
  if (p.ell_bits + u > n) {
    throw std::invalid_argument("LineParams: answer layout (ell:" + std::to_string(p.ell_bits) +
                                " + u:" + std::to_string(u) + ") exceeds n=" + std::to_string(n));
  }
  return p;
}

std::string LineParams::to_string() const {
  std::ostringstream ss;
  ss << "LineParams{n=" << n << ", u=" << u << ", v=" << v << ", w=" << w
     << ", index_bits=" << index_bits << ", ell_bits=" << ell_bits << "}";
  return ss.str();
}

std::uint64_t LineParams::chain_nodes(std::optional<std::uint64_t> nodes) const {
  if (!nodes.has_value()) return w;
  if (*nodes == 0 || *nodes > w) {
    throw std::invalid_argument("LineParams: chain of " + std::to_string(*nodes) +
                                " nodes is outside [1, w=" + std::to_string(w) + "]");
  }
  return *nodes;
}

LineParams PaperRegime::derive_line_params() const {
  std::uint64_t u = n / 3;
  if (u == 0) throw std::invalid_argument("PaperRegime: n too small (u = n/3 = 0)");
  std::uint64_t v = util::ceil_div(S, u);
  return LineParams::make(n, u, v, T);
}

double PaperRegime::lemma36_h() const {
  std::uint64_t u = n / 3;
  std::uint64_t v = util::ceil_div(S, u == 0 ? 1 : u);
  double log_w = std::log2(static_cast<double>(T));
  double log_v = std::log2(static_cast<double>(v));
  double log_q = std::log2(static_cast<double>(q));
  double denom = static_cast<double>(u) - (log_w * log_w + 2.0) * log_v - log_q;
  if (denom <= 0.0) return 0.0;
  return static_cast<double>(s) / denom + 1.0;
}

std::vector<PaperRegime::Check> PaperRegime::checks(double c) const {
  std::vector<Check> out;
  auto add = [&out](std::string name, bool ok, std::string detail) {
    out.push_back({std::move(name), ok, std::move(detail)});
  };

  double n14 = std::pow(static_cast<double>(n), 0.25);
  double bound = std::exp2(n14);  // the theorem's 2^{O(n^{1/4})} with constant 1

  add("n <= S", n <= S, "S=" + std::to_string(S) + ", n=" + std::to_string(n));
  add("S < 2^(n^1/4)", static_cast<double>(S) < bound,
      "S=" + std::to_string(S) + " vs 2^" + std::to_string(n14));
  add("S <= T", S <= T, "T=" + std::to_string(T));
  add("T < 2^(n^1/4)", static_cast<double>(T) < bound, "T=" + std::to_string(T));
  add("m < 2^(n^1/4)", static_cast<double>(m) < bound, "m=" + std::to_string(m));
  add("q < 2^(n/4)", static_cast<double>(q) < std::exp2(static_cast<double>(n) / 4.0),
      "q=" + std::to_string(q));
  add("s <= S/c", static_cast<double>(s) <= static_cast<double>(S) / c,
      "s=" + std::to_string(s) + ", S/c=" + std::to_string(static_cast<double>(S) / c));

  // Lemma 3.6 precondition: u >= (log²w + 2)·log v + log q.
  std::uint64_t u = n / 3;
  std::uint64_t v = util::ceil_div(S, u == 0 ? 1 : u);
  double log_w = std::log2(static_cast<double>(T));
  double log_v = std::log2(static_cast<double>(v));
  double log_q = std::log2(static_cast<double>(q));
  double need = (log_w * log_w + 2.0) * log_v + log_q;
  add("u >= (log^2 w + 2)log v + log q", static_cast<double>(u) >= need,
      "u=" + std::to_string(u) + ", need=" + std::to_string(need));

  return out;
}

bool PaperRegime::all_satisfied(double c) const {
  for (const auto& ck : checks(c)) {
    if (!ck.satisfied) return false;
  }
  return true;
}

}  // namespace mpch::core
