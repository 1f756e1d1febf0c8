// params.hpp — the parameter systems of Tables 1–3.
//
// Two views:
//  * PaperRegime — the asymptotic regime of Theorem 3.1 (inputs n, S, T, q,
//    m, s); derives Table 3's (u, v, w) via u = n/3, v = S/u, w = T and
//    checks every side condition the theorem and Lemma 3.6 impose.
//  * LineParams — the concrete, laptop-scale parameterisation every
//    simulation runs with: explicit (n, u, v, w) plus the bit layout of
//    oracle queries/answers. PaperRegime::to_line_params() bridges the two.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/math.hpp"

namespace mpch::core {

/// Concrete parameters of the Line / SimLine functions (Table 3) together
/// with the derived query/answer bit layouts.
///
/// Query layout (Line):   [ i : index_bits ][ x : u ][ r : u ][ 0* pad ]  = n bits
/// Answer layout (Line):  [ ℓ : ell_bits ][ r : u ][ z : rest ]           = n bits
/// Query layout (SimLine):[ x : u ][ r : u ][ 0* pad ]                    = n bits
/// Answer layout (SimLine):[ r : u ][ z : rest ]                          = n bits
///
/// The paper's ℓ is "⌈log v⌉ bits of output … used to specify x_ℓ"; when v
/// is not a power of two we map the ell_bits-wide field into [v] by modulo,
/// which is exactly uniform when v is a power of two (all experiments use
/// powers of two unless deliberately testing the mod path).
struct LineParams {
  std::uint64_t n = 0;  ///< oracle input/output width in bits
  std::uint64_t u = 0;  ///< bits per input block x_i
  std::uint64_t v = 0;  ///< number of input blocks
  std::uint64_t w = 0;  ///< chain length (the paper's w = T)

  // Derived layout widths.
  std::uint64_t index_bits = 0;  ///< width of the node index i in queries
  std::uint64_t ell_bits = 0;    ///< width of ℓ in answers (⌈log v⌉)

  /// Validates and fills in derived fields. Throws std::invalid_argument
  /// with a specific message if the layout does not fit in n bits.
  static LineParams make(std::uint64_t n, std::uint64_t u, std::uint64_t v, std::uint64_t w);

  std::uint64_t input_bits() const { return u * v; }   ///< |X| = S = u·v
  std::uint64_t output_bits() const { return n; }      ///< f : {0,1}^{uv} -> {0,1}^n

  /// z-width in Line answers (redundant output).
  std::uint64_t z_bits() const { return n - ell_bits - u; }

  /// How many chain nodes an evaluate_chain(…, nodes) call evaluates: all w
  /// when `nodes` is empty, else *nodes. Throws std::invalid_argument
  /// outside [1, w].
  std::uint64_t chain_nodes(std::optional<std::uint64_t> nodes) const;

  std::string to_string() const;
};

/// The asymptotic regime of Theorem 3.1 / Table 2, with all side conditions.
struct PaperRegime {
  std::uint64_t n = 0;  ///< oracle width
  std::uint64_t S = 0;  ///< RAM space budget,  n <= S < 2^{O(n^{1/4})}
  std::uint64_t T = 0;  ///< RAM query budget,  S <= T < 2^{O(n^{1/4})}
  std::uint64_t q = 0;  ///< per-round per-machine oracle queries, q < 2^{n/4}
  std::uint64_t m = 0;  ///< machine count, m < 2^{O(n^{1/4})}
  std::uint64_t s = 0;  ///< local memory, s <= S/c

  struct Check {
    std::string name;
    bool satisfied;
    std::string detail;
  };

  /// Table 3 derivation: u = n/3, v = S/u (ceil), w = T.
  LineParams derive_line_params() const;

  /// Every inequality Theorem 3.1 / Lemma 3.2 / Lemma 3.6 states, evaluated
  /// concretely. `c` is the universal constant (paper: "some c > 1").
  std::vector<Check> checks(double c = 2.0) const;

  bool all_satisfied(double c = 2.0) const;

  /// The paper's h = s / (u − (log²w + 2)·log v − log q) + 1 from Lemma 3.6
  /// (the advance cap per round a machine can achieve without breaking the
  /// compression bound). Returns 0 when the denominator is non-positive,
  /// i.e. the precondition of Lemma 3.6 fails.
  double lemma36_h() const;
};

}  // namespace mpch::core
