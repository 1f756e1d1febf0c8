#include "hash/random_oracle.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "hash/oracle_transcript.hpp"
#include "hash/sha256_compress.hpp"
#include "util/key_hash.hpp"

namespace mpch::hash {

void RandomOracle::check_input(const util::BitString& input) const {
  if (input.size() != input_bits()) {
    throw std::invalid_argument("RandomOracle: input has " + std::to_string(input.size()) +
                                " bits, oracle domain is " + std::to_string(input_bits()));
  }
}

util::BitString sha256_expand(const std::vector<std::uint8_t>& prefix, std::size_t out_bits) {
  Sha256 h;
  h.update(prefix);
  return sha256_expand(h, out_bits);
}

namespace {

Sha256::Digest expand_block(Sha256 h, std::uint32_t counter) {
  const std::uint8_t ctr_bytes[4] = {
      static_cast<std::uint8_t>(counter >> 24), static_cast<std::uint8_t>(counter >> 16),
      static_cast<std::uint8_t>(counter >> 8), static_cast<std::uint8_t>(counter)};
  h.update(ctr_bytes, 4);
  return h.digest();
}

}  // namespace

util::BitString sha256_expand(const Sha256& prefix, std::size_t out_bits) {
  // Each counter block's digest lands straight in the output's bytes; the
  // last one is cut to the bytes still needed and with_bytes() clears the
  // bits past out_bits.
  return util::BitString::with_bytes(out_bits, [&](std::uint8_t* bytes, std::size_t nbytes) {
    std::uint32_t counter = 0;
    for (std::size_t pos = 0; pos < nbytes; pos += Sha256::kDigestBytes, ++counter) {
      const Sha256::Digest d = expand_block(prefix, counter);
      std::memcpy(bytes + pos, d.data(), std::min(d.size(), nbytes - pos));
    }
  });
}

std::uint64_t sha256_expand_u64(const Sha256& prefix) {
  const Sha256::Digest d = expand_block(prefix, 0);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[i];
  return v;
}

std::uint64_t sha256_expand_u64(std::span<const std::uint8_t> head, const std::uint8_t* body,
                                std::size_t body_bits) {
  const std::size_t whole = body_bits / 8;
  const std::size_t partial = body_bits % 8 == 0 ? 0 : 1;
  // The padded tail (body bytes not yet hashed, the partial byte, 4 counter
  // bytes, 0x80 and the 8-byte length) always fits two blocks: it is the
  // whole message when that fits, else it starts after the head block and
  // the whole middle blocks, with under 64 body bytes left.
  std::uint8_t buf[128] = {};
  std::size_t fill = head.size();
  if (fill >= 64) throw std::invalid_argument("sha256_expand_u64: head fills a whole block");
  std::memcpy(buf, head.data(), fill);
  std::array<std::uint32_t, 8> state = Sha256::kInitState;
  std::size_t pos = 0;
  if (fill + whole + partial + 13 > sizeof buf) {
    // Finish the head block from the body, then hash whole blocks in place.
    pos = 64 - fill;
    std::memcpy(buf + fill, body, pos);
    detail::compress(state.data(), buf, 1);
    if (const std::size_t middle = (whole - pos) / 64; middle > 0) {
      detail::compress(state.data(), body + pos, middle);
      pos += middle * 64;
    }
    std::memset(buf, 0, 64);
    fill = 0;
  }
  if (whole > pos) {
    std::memcpy(buf + fill, body + pos, whole - pos);
    fill += whole - pos;
  }
  if (partial != 0) {
    buf[fill++] = static_cast<std::uint8_t>(body[whole] & (0xFFU << (8 - body_bits % 8)));
  }
  fill += 4;  // counter 0
  buf[fill++] = 0x80;
  const std::size_t nblocks = fill + 8 <= 64 ? 1 : 2;
  const std::uint64_t message_bits = (std::uint64_t{head.size()} + whole + partial + 4) * 8;
  for (int i = 0; i < 8; ++i) {
    buf[64 * nblocks - 8 + i] = static_cast<std::uint8_t>(message_bits >> (56 - 8 * i));
  }
  detail::compress(state.data(), buf, nblocks);
  return (std::uint64_t{state[0]} << 32) | state[1];
}

namespace {

// sha256_expand over header || input bytes || le64(input bit length), the
// prefix of both oracles' answers. When the prefix and the counter fit one
// padded block and one digest covers out_bits, that block is built here and
// compressed once; otherwise the streaming path runs.
template <std::size_t N>
util::BitString expand_oracle_prefix(const std::uint8_t (&header)[N],
                                     const util::BitString& input, std::size_t out_bits) {
  const util::ByteView in = input.bytes();
  const std::size_t message_bytes = N + in.size() + 8 + 4;
  if (message_bytes > 55 || out_bits > 8 * Sha256::kDigestBytes) {
    std::uint8_t len[8];
    store_le64(len, input.size());
    Sha256 h;
    h.update(header, N);
    h.update(in);
    h.update(len, sizeof len);
    return sha256_expand(h, out_bits);
  }
  // Counter 0 is the four zero bytes after the length; then 0x80, zeros,
  // and the big-endian message bit length in the last eight bytes.
  std::uint8_t block[64] = {};
  std::memcpy(block, header, N);
  std::memcpy(block + N, in.data(), in.size());
  store_le64(block + N + in.size(), input.size());
  block[message_bytes] = 0x80;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(std::uint64_t{message_bytes} * 8 >> (56 - 8 * i));
  }
  std::array<std::uint32_t, 8> state = Sha256::kInitState;
  detail::compress(state.data(), block, 1);
  return util::BitString::with_bytes(out_bits, [&](std::uint8_t* bytes, std::size_t nbytes) {
    for (std::size_t i = 0; i < nbytes; ++i) {
      bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    }
  });
}

}  // namespace

// ---------------------------------------------------------- shared memo

SharedOracleMemo::SharedOracleMemo(std::size_t in_bits, std::size_t out_bits, std::uint64_t seed)
    : in_bits_(in_bits), out_bits_(out_bits), seed_(seed) {
  if (in_bits == 0 || out_bits == 0) {
    throw std::invalid_argument("SharedOracleMemo: zero-width domain or range");
  }
}

bool SharedOracleMemo::lookup(const util::BitString& input, util::BitString* out) const {
  const Shard& shard = shards_[util::BitStringHash{}(input) % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.table.find(input);
  if (it == shard.table.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  *out = it->second;
  return true;
}

void SharedOracleMemo::publish(const util::BitString& input, const util::BitString& value) {
  Shard& shard = shards_[util::BitStringHash{}(input) % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.table.emplace(input, value);
}

std::size_t SharedOracleMemo::entries() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.table.size();
  }
  return total;
}

// ---------------------------------------------------------------- Lazy RO

LazyRandomOracle::LazyRandomOracle(std::size_t in_bits, std::size_t out_bits, std::uint64_t seed)
    : in_bits_(in_bits), out_bits_(out_bits), seed_(seed), index_(16, 0) {
  if (in_bits == 0 || out_bits == 0) {
    throw std::invalid_argument("LazyRandomOracle: zero-width domain or range");
  }
}

util::BitString LazyRandomOracle::derive(const util::BitString& input) const {
  // PRF(seed, input): prefix = "LRO" || seed || input-bytes || input-bitlen.
  std::uint8_t header[3 + 8] = {'L', 'R', 'O'};
  store_le64(header + 3, seed_);
  return expand_oracle_prefix(header, input, out_bits_);
}

LazyRandomOracle::Entry* LazyRandomOracle::find_locked(const util::BitString& input,
                                                       std::uint64_t hash) {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask; index_[i] != 0; i = (i + 1) & mask) {
    Entry& e = entries_[index_[i] - 1];
    if (e.input == input) return &e;
  }
  return nullptr;
}

std::size_t LazyRandomOracle::free_slot_locked(std::uint64_t hash) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  return i;
}

LazyRandomOracle::Entry& LazyRandomOracle::insert_locked(const util::BitString& input,
                                                         std::uint64_t hash,
                                                         util::BitString output) {
  if (entries_.size() >= std::numeric_limits<std::uint32_t>::max() - 1) {
    throw std::length_error("LazyRandomOracle: memo holds 2^32 - 1 entries");
  }
  if (2 * (entries_.size() + 1) > index_.size()) {
    // Double the index and re-place every entry: at most half full keeps
    // probe runs short.
    index_.assign(2 * index_.size(), 0);
    for (std::size_t k = 0; k < entries_.size(); ++k) {
      index_[free_slot_locked(util::key_hash(entries_[k].input))] =
          static_cast<std::uint32_t>(k + 1);
    }
  }
  index_[free_slot_locked(hash)] = static_cast<std::uint32_t>(entries_.size() + 1);
  entries_.push_back({input, std::move(output)});
  return entries_.back();
}

util::BitString LazyRandomOracle::query(const util::BitString& input) {
  check_input(input);
  total_queries_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t hash = util::key_hash(input);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const Entry* e = find_locked(input, hash)) return e->output;
  }
  // Local miss: take the answer from the cross-oracle memo when attached
  // (same pure value, derived by an earlier job), else derive it here and
  // publish for the next oracle of the family. Either way the *local* memo
  // records the entry, so touched_table()/serialisation see exactly the
  // sub-function this oracle was asked about — sharing is invisible to every
  // observable surface. Derivation runs outside the lock (SHA work); two
  // racing threads derive the same pure value and the first insert wins, so
  // the table is the same either way.
  util::BitString answer;
  if (shared_memo_ == nullptr || !shared_memo_->lookup(input, &answer)) {
    answer = derive(input);
    if (shared_memo_ != nullptr) shared_memo_->publish(input, answer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (const Entry* e = find_locked(input, hash)) return e->output;
  return insert_locked(input, hash, std::move(answer)).output;
}

void LazyRandomOracle::attach_shared_memo(std::shared_ptr<SharedOracleMemo> memo) {
  // Attach during per-job setup, before any concurrent queries: the pointer
  // itself is not synchronised (queries read it lock-free).
  if (memo != nullptr && (memo->input_bits() != in_bits_ || memo->output_bits() != out_bits_ ||
                          memo->seed() != seed_)) {
    throw std::invalid_argument(
        "LazyRandomOracle::attach_shared_memo: memo family (" +
        std::to_string(memo->input_bits()) + "," + std::to_string(memo->output_bits()) +
        ",seed=" + std::to_string(memo->seed()) + ") does not match oracle (" +
        std::to_string(in_bits_) + "," + std::to_string(out_bits_) +
        ",seed=" + std::to_string(seed_) + ")");
  }
  shared_memo_ = std::move(memo);
}

std::size_t LazyRandomOracle::touched_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::pair<util::BitString, util::BitString>> LazyRandomOracle::touched_table() const {
  std::vector<std::pair<util::BitString, util::BitString>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.emplace_back(e.input, e.output);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void LazyRandomOracle::restore_table(const std::vector<QueryRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const QueryRecord& rec : records) {
    check_input(rec.input);
    const std::uint64_t hash = util::key_hash(rec.input);
    const Entry* e = find_locked(rec.input, hash);
    if (e == nullptr ? derive(rec.input) != rec.output : e->output != rec.output) {
      throw std::invalid_argument(
          "LazyRandomOracle::restore_table: input " + rec.input.to_hex_string() +
          (e == nullptr ? ": recorded answer does not match this oracle's seed (a snapshot from "
                          "another oracle, or corrupted)"
                        : ": two records give it different answers"));
    }
    if (e == nullptr) insert_locked(rec.input, hash, rec.output);
  }
  total_queries_.store(records.size(), std::memory_order_relaxed);
}

bool LazyRandomOracle::corrupt_memo_entry(std::size_t entry_index, std::size_t bit_index) {
  // Resolve the sorted-order index to its input first; the flip itself then
  // happens under the lock.
  auto entries = touched_table();
  if (entry_index >= entries.size()) return false;
  const util::BitString& input = entries[entry_index].first;
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_locked(input, util::key_hash(input));
  if (e == nullptr) return false;
  std::size_t bit = bit_index % out_bits_;
  e->output.set(bit, !e->output.get(bit));
  return true;
}

std::vector<util::BitString> LazyRandomOracle::verify_memo() const {
  std::vector<util::BitString> bad;
  for (const auto& [input, output] : touched_table()) {
    if (derive(input) != output) bad.push_back(input);
  }
  return bad;
}

// ---------------------------------------------------------- Exhaustive RO

ExhaustiveRandomOracle::ExhaustiveRandomOracle(std::size_t in_bits, std::size_t out_bits,
                                               util::Rng& rng)
    : in_bits_(in_bits), out_bits_(out_bits) {
  if (in_bits > 22) {
    throw std::invalid_argument("ExhaustiveRandomOracle: in_bits > 22 would materialise > 4M "
                                "entries; use LazyRandomOracle");
  }
  std::uint64_t entries = 1ULL << in_bits;
  table_.reserve(entries);
  for (std::uint64_t i = 0; i < entries; ++i) {
    table_.push_back(util::BitString::random(out_bits, [&rng] { return rng.next_u64(); }));
  }
}

util::BitString ExhaustiveRandomOracle::query(const util::BitString& input) {
  check_input(input);
  total_queries_.fetch_add(1, std::memory_order_relaxed);
  return table_[input.get_uint(0, in_bits_)];
}

void ExhaustiveRandomOracle::set_entry(std::uint64_t index, util::BitString value) {
  if (index >= table_.size()) throw std::out_of_range("ExhaustiveRandomOracle::set_entry");
  if (value.size() != out_bits_) {
    throw std::invalid_argument("ExhaustiveRandomOracle::set_entry: wrong value width");
  }
  table_[index] = std::move(value);
}

std::uint64_t ExhaustiveRandomOracle::table_bits() const {
  return static_cast<std::uint64_t>(out_bits_) << in_bits_;
}

// -------------------------------------------------------------- SHA-256 h

Sha256Oracle::Sha256Oracle(std::size_t in_bits, std::size_t out_bits)
    : in_bits_(in_bits), out_bits_(out_bits) {
  if (in_bits == 0 || out_bits == 0) {
    throw std::invalid_argument("Sha256Oracle: zero-width domain or range");
  }
}

util::BitString Sha256Oracle::query(const util::BitString& input) {
  check_input(input);
  total_queries_.fetch_add(1, std::memory_order_relaxed);
  // prefix = "SHA" || input-bytes || input-bitlen.
  const std::uint8_t header[3] = {'S', 'H', 'A'};
  return expand_oracle_prefix(header, input, out_bits_);
}

}  // namespace mpch::hash
