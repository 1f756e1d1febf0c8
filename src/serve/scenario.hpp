// scenario.hpp — the shared strategy catalog behind mpch-chaos and
// mpch-serve.
//
// A Scenario is one runnable (config, algorithm, initial memory, oracle
// recipe) bundle for a named strategy at a given seed. Both tools build the
// exact same bundles — that is what makes serve's cornerstone conformance
// claim ("every JobResult is bit-identical to a standalone run") testable at
// all: there is one construction, not two copies drifting apart.
//
// Scenarios are built fresh per execution (strategy-internal counters must
// never leak between runs), and so is each execution's oracle: make_oracle
// returns a new LazyRandomOracle of the scenario's family, which derives
// every answer itself and records the inputs this execution queried.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"

namespace mpch::serve {

/// The oracle-family key (input width, output width, secret seed). Two runs
/// whose families agree evaluate the *same* random function, so their memo
/// entries are interchangeable.
struct OracleFamily {
  std::uint64_t in_bits = 0;
  std::uint64_t out_bits = 0;
  std::uint64_t seed = 0;

  bool present() const { return in_bits != 0; }
  bool operator<(const OracleFamily& o) const {
    if (in_bits != o.in_bits) return in_bits < o.in_bits;
    if (out_bits != o.out_bits) return out_bits < o.out_bits;
    return seed < o.seed;
  }
};

struct Scenario {
  mpc::MpcConfig config;
  std::shared_ptr<mpc::MpcAlgorithm> algo;
  std::vector<util::BitString> initial;
  OracleFamily family;  ///< !present() for plain-model (Definition 2.1) runs
  std::shared_ptr<const core::LineInput> truth;  // outlives algo (speculative holds a pointer)

  /// A fresh oracle for one execution, or null for plain-model scenarios.
  /// `memo` (optional; only the benchmark under perfbench/ still passes one)
  /// must match `family`; it is attached before any query.
  std::shared_ptr<hash::LazyRandomOracle> make_oracle(
      std::shared_ptr<hash::SharedOracleMemo> memo = nullptr) const;
};

/// Names accepted by make_scenario, in canonical order.
const std::vector<std::string>& strategy_names();

/// Build the named strategy's scenario. `threads` is MpcConfig::threads for
/// the inner round loop (0 = serial). Throws std::invalid_argument for an
/// unknown name.
Scenario make_scenario(const std::string& name, std::uint64_t seed, std::uint64_t threads);

/// Apply a run's options to a freshly built scenario's config: the message
/// transport and its process count, and MAC-tagged messaging. With
/// `authenticate` it also adds 2^16 bits of local memory, because tag bits
/// count against s and tight strategies must stay inside it. mpch-chaos,
/// serve jobs and mpch-reduce's cross-check runners all go through here, so
/// one job runs under the same MpcConfig whichever tool starts it.
void apply_run_options(Scenario* sc, transport::TransportKind transport,
                       std::uint64_t transport_processes, bool authenticate);

/// Compare one run against another across every observable surface (output,
/// round stats, annotations, oracle transcript, materialised oracle table,
/// query counts); returns human-readable mismatch descriptions, empty when
/// bit-identical. A RoundStats or transcript mismatch names the first
/// differing round or record index. Shared by mpch-chaos recovery
/// verification, serve's chaos verb and the test suites, so "verified" means
/// the same thing everywhere.
std::vector<std::string> artifact_mismatches(const mpc::MpcRunResult& ref,
                                             const hash::LazyRandomOracle* ref_oracle,
                                             const mpc::MpcRunResult& got,
                                             const hash::LazyRandomOracle* got_oracle);

}  // namespace mpch::serve
