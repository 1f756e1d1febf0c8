// E7 — Theorem 3.1 / A.1 upper bounds: RAM evaluation costs O(T·n) time and
// O(S) space.
//
// steady_clock timings over w (= T) and n bound the wall-clock cost: each row
// is the median of a fixed number of evaluations, and the ns/(w*n) column
// stays flat or falls exactly when time grows no faster than T·n. RamMeter
// confirms the model-level accounting (queries = w, peak space = uv + O(n))
// exactly.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/line.hpp"
#include "core/simline.hpp"
#include "hash/random_oracle.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace mpch;

namespace {

constexpr int kRepeats = 9;

/// One timing row: the median wall-clock time of f.evaluate() over a fixed
/// number of runs. An untimed warm-up run fills the lazy oracle's memo
/// first, so every timed run does the same work.
template <typename Function>
void add_timing_row(util::Table& t, const std::string& sweep, const core::LineParams& p,
                    std::uint64_t seed) {
  hash::LazyRandomOracle oracle(p.n, p.n, seed);
  util::Rng rng(seed + 1);
  const core::LineInput input = core::LineInput::random(p, rng);
  const Function f(p);
  (void)f.evaluate(oracle, input);
  std::vector<double> ns;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)f.evaluate(oracle, input);
    ns.push_back(
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count());
  }
  std::nth_element(ns.begin(), ns.begin() + kRepeats / 2, ns.end());
  const double median = ns[kRepeats / 2];
  t.add(sweep, p.w, p.n, util::format_double(median / 1000.0, 1),
        util::format_double(median / (static_cast<double>(p.w) * static_cast<double>(p.n)), 3));
}

void print_timing_table() {
  std::cout << "\nwall-clock scaling (steady_clock, median of " << kRepeats
            << " evaluations; paper: time O(T*n)):\n";
  util::Table t({"sweep", "w=T", "n", "median_us", "ns/(w*n)"});
  for (std::uint64_t w : {256, 1024, 4096, 16384}) {
    add_timing_row<core::LineFunction>(t, "Line vs w", core::LineParams::make(64, 16, 64, w), 1);
  }
  for (std::uint64_t n : {64, 128, 256, 512, 1024}) {
    add_timing_row<core::LineFunction>(t, "Line vs n", core::LineParams::make(n, n / 4, 32, 1024),
                                       3);
  }
  for (std::uint64_t w : {256, 1024, 4096, 16384}) {
    add_timing_row<core::SimLineFunction>(t, "SimLine vs w",
                                          core::LineParams::make(64, 16, 64, w), 5);
  }
  t.print(std::cout);
  std::cout << "interpretation: ns/(w*n) is flat in w and does not grow with n — wall-clock\n"
               "time is linear in T and at most linear in n, the claimed O(T*n) RAM upper\n"
               "bound. It falls with n because a fixed per-step cost dominates at these\n"
               "widths.\n";
}

void print_meter_table() {
  std::cout << "\nmodel-level accounting (RamMeter; paper: time O(T*n), space O(S)):\n";
  util::Table t({"w=T", "S=uv_bits", "oracle_queries", "time_units", "time/(w*n)",
                 "peak_space_bits", "space/S"});
  for (std::uint64_t w : {256, 1024, 4096, 16384}) {
    core::LineParams p = core::LineParams::make(64, 16, 64, w);
    hash::LazyRandomOracle oracle(p.n, p.n, 7);
    util::Rng rng(8);
    core::LineInput input = core::LineInput::random(p, rng);
    ram::RamMeter meter(p.n);
    core::LineFunction(p).evaluate(oracle, input, &meter);
    const auto& c = meter.costs();
    t.add(w, p.input_bits(), c.oracle_queries, c.time_units,
          util::format_double(static_cast<double>(c.time_units) /
                                  (static_cast<double>(w) * static_cast<double>(p.n)),
                              3),
          c.peak_memory_bits,
          util::format_double(static_cast<double>(c.peak_memory_bits) /
                                  static_cast<double>(p.input_bits()),
                              3));
  }
  t.print(std::cout);
  std::cout << "interpretation: time/(w*n) and space/S are flat constants — the claimed\n"
               "O(T*n) time / O(S) space RAM upper bound, measured.\n";
}

}  // namespace

int main() {
  bench::header("E7", "Theorem 3.1 / A.1 RAM upper bound",
                "RAM evaluation costs time O(T*n) and space O(S)");
  print_meter_table();
  print_timing_table();
  return 0;
}
