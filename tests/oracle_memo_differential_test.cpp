// oracle_memo_differential_test.cpp — LazyRandomOracle's memo and both
// oracles' derivation against simple references.
//
// The memo is one flat table: entries in a vector plus a power-of-two
// open-addressing index. A seeded random mix of query, restore_table,
// corrupt_memo_entry and verify_memo runs on it and on a std::map model, and
// every observable (answers, touched_table, touched_entries, total_queries,
// verify_memo, which calls throw) must agree while the table grows through
// several index doublings.
//
// An answer whose prefix fits one padded SHA-256 block and whose width fits
// one digest is computed by a single compression of a block built on the
// stack; every other one takes the streaming path. Both are checked against
// the streaming Sha256 object fed one counter block at a time, for input
// widths on both sides of the one-block limit and output widths 1–512.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "hash/oracle_transcript.hpp"
#include "hash/random_oracle.hpp"
#include "hash/sha256.hpp"
#include "util/rng.hpp"

namespace mpch::hash {
namespace {

using util::BitString;

/// SHA-256 counter mode over header || input bytes || le64(input bits),
/// one streaming Sha256 per 32-byte counter block, cut to `out_bits`.
BitString streaming_expand(const std::vector<std::uint8_t>& header, const BitString& input,
                           std::size_t out_bits) {
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t counter = 0; bytes.size() * 8 < out_bits; ++counter) {
    Sha256 h;
    h.update(header.data(), header.size());
    h.update(input.bytes());
    std::uint8_t len[8];
    store_le64(len, input.size());
    h.update(len, sizeof len);
    const std::uint8_t ctr[4] = {
        static_cast<std::uint8_t>(counter >> 24), static_cast<std::uint8_t>(counter >> 16),
        static_cast<std::uint8_t>(counter >> 8), static_cast<std::uint8_t>(counter)};
    h.update(ctr, sizeof ctr);
    const Sha256::Digest d = h.digest();
    bytes.insert(bytes.end(), d.begin(), d.end());
  }
  return BitString::from_bytes(bytes).slice(0, out_bits);
}

BitString reference_lazy(std::uint64_t seed, const BitString& input, std::size_t out_bits) {
  std::vector<std::uint8_t> header = {'L', 'R', 'O', 0, 0, 0, 0, 0, 0, 0, 0};
  store_le64(header.data() + 3, seed);
  return streaming_expand(header, input, out_bits);
}

BitString reference_sha(const BitString& input, std::size_t out_bits) {
  return streaming_expand({'S', 'H', 'A'}, input, out_bits);
}

BitString random_bits(util::Rng& rng, std::size_t nbits) {
  return BitString::random(nbits, [&rng] { return rng.next_u64(); });
}

/// The memo as a std::map from input to answer, with LazyRandomOracle's
/// documented contracts written out plainly.
struct ReferenceMemo {
  std::uint64_t seed;
  std::size_t out_bits;
  std::map<BitString, BitString> table;
  std::uint64_t queries = 0;

  BitString query(const BitString& input) {
    ++queries;
    auto it = table.find(input);
    if (it == table.end()) it = table.emplace(input, reference_lazy(seed, input, out_bits)).first;
    return it->second;
  }

  /// False where restore_table must throw; the records before the failing
  /// one stay applied and the query counter keeps its value.
  bool restore(const std::vector<QueryRecord>& records) {
    for (const QueryRecord& rec : records) {
      auto it = table.find(rec.input);
      if (it == table.end()) {
        if (reference_lazy(seed, rec.input, out_bits) != rec.output) return false;
        table.emplace(rec.input, rec.output);
      } else if (it->second != rec.output) {
        return false;
      }
    }
    queries = records.size();
    return true;
  }

  bool corrupt(std::size_t entry, std::size_t bit) {
    if (entry >= table.size()) return false;
    BitString& value = std::next(table.begin(), static_cast<std::ptrdiff_t>(entry))->second;
    value.set(bit % out_bits, !value.get(bit % out_bits));
    return true;
  }

  std::vector<BitString> verify() const {
    std::vector<BitString> bad;
    for (const auto& [input, output] : table) {
      if (reference_lazy(seed, input, out_bits) != output) bad.push_back(input);
    }
    return bad;
  }
};

void expect_same_state(const LazyRandomOracle& oracle, const ReferenceMemo& model,
                       std::size_t step) {
  ASSERT_EQ(oracle.touched_entries(), model.table.size()) << "step " << step;
  ASSERT_EQ(oracle.total_queries(), model.queries) << "step " << step;
  const auto got = oracle.touched_table();
  ASSERT_EQ(got.size(), model.table.size()) << "step " << step;
  std::size_t i = 0;
  for (const auto& [input, output] : model.table) {
    ASSERT_EQ(got[i].first, input) << "step " << step << " entry " << i;
    ASSERT_EQ(got[i].second, output) << "step " << step << " entry " << i;
    ++i;
  }
}

/// Records for restore_table: a random sample (with repeats) of the
/// model's entries as they stand, some fresh inputs with their true
/// answers, and with `tamper` one answer flipped.
std::vector<QueryRecord> sample_records(util::Rng& rng, const ReferenceMemo& model,
                                        std::size_t in_bits, bool tamper) {
  std::vector<QueryRecord> records;
  std::vector<const std::pair<const BitString, BitString>*> entries;
  for (const auto& e : model.table) entries.push_back(&e);
  const std::size_t n = 1 + rng.next_below(40);
  for (std::size_t k = 0; k < n; ++k) {
    QueryRecord rec;
    rec.seq = k;
    if (!entries.empty() && rng.next_below(3) != 0) {
      const auto* e = entries[rng.next_below(entries.size())];
      rec.input = e->first;
      rec.output = e->second;
    } else {
      rec.input = random_bits(rng, in_bits);
      rec.output = reference_lazy(model.seed, rec.input, model.out_bits);
    }
    records.push_back(std::move(rec));
  }
  if (tamper) {
    BitString& out = records[rng.next_below(records.size())].output;
    out.set(0, !out.get(0));
  }
  return records;
}

void run_memo_mix(std::size_t in_bits, std::size_t out_bits, std::size_t steps,
                  std::size_t min_entries) {
  SCOPED_TRACE("in_bits " + std::to_string(in_bits) + ", out_bits " + std::to_string(out_bits));
  const std::uint64_t seed = 1000 + in_bits * 7 + out_bits;
  util::Rng rng(seed);
  auto oracle = std::make_unique<LazyRandomOracle>(in_bits, out_bits, seed);
  ReferenceMemo model{seed, out_bits, {}, 0};
  std::vector<BitString> seen;

  for (std::size_t step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 83) {
      BitString input = (seen.empty() || rng.next_below(2) == 0)
                            ? random_bits(rng, in_bits)
                            : seen[rng.next_below(seen.size())];
      ASSERT_EQ(oracle->query(input), model.query(input)) << "step " << step;
      seen.push_back(std::move(input));
    } else if (op < 91) {
      // Restore onto the live memo: known inputs must agree with it.
      const auto records = sample_records(rng, model, in_bits, rng.next_below(4) == 0);
      if (model.restore(records)) {
        ASSERT_NO_THROW(oracle->restore_table(records)) << "step " << step;
      } else {
        ASSERT_THROW(oracle->restore_table(records), std::invalid_argument) << "step " << step;
      }
    } else if (op < 93) {
      // Restore into a fresh oracle, as a checkpoint resume does; it takes
      // over when the records are accepted (a corrupted entry is refused).
      std::vector<QueryRecord> records;
      for (const auto& [input, output] : model.table) records.push_back({0, 0, 0, input, output});
      auto fresh = std::make_unique<LazyRandomOracle>(in_bits, out_bits, seed);
      ReferenceMemo fresh_model{seed, out_bits, {}, 0};
      if (fresh_model.restore(records)) {
        ASSERT_NO_THROW(fresh->restore_table(records)) << "step " << step;
        oracle = std::move(fresh);
        model = std::move(fresh_model);
      } else {
        ASSERT_THROW(fresh->restore_table(records), std::invalid_argument) << "step " << step;
      }
    } else if (op < 98) {
      const std::size_t entry = rng.next_below(model.table.size() + 3);
      const std::size_t bit = rng.next_below(1000);
      ASSERT_EQ(oracle->corrupt_memo_entry(entry, bit), model.corrupt(entry, bit))
          << "step " << step;
    } else {
      ASSERT_EQ(oracle->verify_memo(), model.verify()) << "step " << step;
    }
    if (step % 97 == 0) expect_same_state(*oracle, model, step);
  }
  expect_same_state(*oracle, model, steps);
  EXPECT_EQ(oracle->verify_memo(), model.verify());
  // 16 index slots at construction, at most half full: min_entries forces
  // the doublings.
  EXPECT_GE(oracle->touched_entries(), min_entries);
}

TEST(OracleMemoDifferential, NarrowInputsGrowThroughNineIndexDoublings) {
  run_memo_mix(20, 20, 6000, 2049);
}

TEST(OracleMemoDifferential, WordInputsMatchTheMapModel) { run_memo_mix(64, 64, 3000, 1025); }

TEST(OracleMemoDifferential, StreamingWidthsMatchTheMapModel) {
  // 300-bit inputs and answers: heap BitStrings, streaming derivation.
  run_memo_mix(300, 300, 1500, 513);
}

TEST(OracleMemoDifferential, CorruptedEntrySurvivesIndexGrowth) {
  // A hit must return exactly what the entry holds, also after the index
  // has been rebuilt around it several times.
  LazyRandomOracle oracle(32, 32, 5);
  const BitString first = oracle.query(BitString::from_uint(7, 32));
  ASSERT_TRUE(oracle.corrupt_memo_entry(0, 3));
  for (std::uint64_t v = 100; v < 5000; ++v) oracle.query(BitString::from_uint(v, 32));
  BitString flipped = first;
  flipped.set(3, !flipped.get(3));
  EXPECT_EQ(oracle.query(BitString::from_uint(7, 32)), flipped);
  EXPECT_EQ(oracle.verify_memo(), std::vector<BitString>{BitString::from_uint(7, 32)});
}

void expect_derivations_match(std::size_t in_bits, std::size_t out_bits, util::Rng& rng) {
  const std::uint64_t seed = rng.next_u64();
  const BitString input = random_bits(rng, in_bits);
  LazyRandomOracle lazy(in_bits, out_bits, seed);
  ASSERT_EQ(lazy.query(input), reference_lazy(seed, input, out_bits))
      << "LazyRandomOracle in_bits " << in_bits << " out_bits " << out_bits;
  Sha256Oracle sha(in_bits, out_bits);
  ASSERT_EQ(sha.query(input), reference_sha(input, out_bits))
      << "Sha256Oracle in_bits " << in_bits << " out_bits " << out_bits;
}

TEST(OracleDeriveDifferential, EveryInputWidthAcrossTheOneBlockLimit) {
  // One block holds LazyRandomOracle's prefix up to 32 input bytes (256
  // bits) and Sha256Oracle's up to 40 (320 bits); one digest covers 256
  // output bits.
  util::Rng rng(11);
  for (std::size_t in_bits = 1; in_bits <= 344; ++in_bits) {
    for (std::size_t out_bits : {1, 7, 8, 64, 255, 256, 257, 300, 512}) {
      expect_derivations_match(in_bits, out_bits, rng);
    }
  }
}

TEST(OracleDeriveDifferential, EveryOutputWidthFromOneTo512) {
  util::Rng rng(12);
  for (std::size_t out_bits = 1; out_bits <= 512; ++out_bits) {
    for (std::size_t in_bits : {1, 8, 63, 64, 65, 255, 256, 257, 264, 319, 320, 321, 328}) {
      expect_derivations_match(in_bits, out_bits, rng);
    }
  }
}

}  // namespace
}  // namespace mpch::hash
