#include "fault/checkpoint.hpp"

#include <span>

#include "util/serialize.hpp"

namespace mpch::fault {

namespace {

constexpr std::uint8_t kMagic[8] = {'M', 'P', 'C', 'H', 'K', 'P', 'T', 0x01};

// Magic, version, payload bit count and checksum: four 64-bit words.
constexpr std::size_t kHeaderBits = 4 * 64;

std::uint64_t payload_checksum(std::uint64_t payload_bits, std::span<const std::uint8_t> payload) {
  // SHA-256-derived 64-bit digest over (bit length, packed bytes); domain
  // separated from every other sha256_expand use in the tree.
  std::uint8_t header[4 + 8] = {'C', 'K', 'P', 'T'};
  hash::store_le64(header + 4, payload_bits);
  hash::Sha256 h;
  h.update(header, sizeof header);
  h.update(payload);
  return hash::sha256_expand_u64(h);
}

/// A writer holding the header, its length and checksum still zero, for
/// the payload to follow.
util::BitWriter start_frame() {
  util::BitWriter w;
  for (std::uint8_t b : kMagic) w.write_uint(b, 8);
  w.write_uint(Checkpoint::kVersion, 64);
  w.write_uint(0, 64);  // payload bits
  w.write_uint(0, 64);  // checksum
  return w;
}

/// Take a start_frame() writer's bits and fill in the length and checksum:
/// the payload is checksummed where it lies, never copied.
util::BitString seal_frame(util::BitWriter& w) {
  util::BitString wire = w.take();
  const std::uint64_t payload_bits = wire.size() - kHeaderBits;
  wire.set_uint(128, 64, payload_bits);
  wire.set_uint(192, 64, payload_checksum(payload_bits, wire.bytes().subspan(kHeaderBits / 8)));
  return wire;
}

void write_peak(util::BitWriter& w, const mpc::Peak& p) {
  w.write_uint(p.value, 64);
  w.write_uint(p.machine, 64);
}

mpc::Peak read_peak(util::BitReader& r) {
  mpc::Peak p;
  p.value = r.read_uint(64);
  p.machine = r.read_uint(64);
  return p;
}

void write_payload(util::BitWriter& w, const Checkpoint& cp) {
  w.write_uint(cp.next_round, 64);
  w.write_uint(cp.machines, 64);
  w.write_uint(cp.local_memory_bits, 64);
  w.write_uint(cp.query_budget, 64);
  w.write_uint(cp.tape_seed, 64);

  w.write_uint(cp.inboxes.size(), 64);
  for (const auto& inbox : cp.inboxes) {
    w.write_uint(inbox.size(), 64);
    for (const auto& msg : inbox) {
      w.write_uint(msg.from, 64);
      w.write_uint(msg.to, 64);
      util::write_bitstring_field(w, msg.payload);
    }
  }

  w.write_uint(cp.rounds.size(), 64);
  for (const auto& s : cp.rounds) {
    w.write_uint(s.round, 64);
    w.write_uint(s.messages, 64);
    w.write_uint(s.communicated_bits, 64);
    w.write_uint(s.oracle_queries, 64);
    w.write_uint(s.max_inbox_bits, 64);
    write_peak(w, s.peak_memory_bits);
    write_peak(w, s.peak_queries);
    write_peak(w, s.peak_fan_out);
    write_peak(w, s.peak_fan_in);
    write_peak(w, s.peak_sent_bits);
    write_peak(w, s.peak_recv_bits);
    write_peak(w, s.peak_message_bits);
  }

  w.write_uint(cp.annotations.size(), 64);
  for (const auto& [key, values] : cp.annotations) {
    util::write_string_field(w, key);
    w.write_uint(values.size(), 64);
    for (std::uint64_t v : values) w.write_uint(v, 64);
  }

  w.write_uint(cp.transcript.size(), 64);
  for (const auto& rec : cp.transcript) {
    w.write_uint(rec.round, 64);
    w.write_uint(rec.machine, 64);
    w.write_uint(rec.seq, 64);
    util::write_bitstring_field(w, rec.input);
    util::write_bitstring_field(w, rec.output);
  }

  w.write_bool(cp.has_oracle);
  if (cp.has_oracle) {
    w.write_uint(cp.oracle_in_bits, 64);
    w.write_uint(cp.oracle_out_bits, 64);
    w.write_uint(cp.oracle_total_queries, 64);
    w.write_uint(cp.oracle_memo.size(), 64);
    for (const auto& [input, output] : cp.oracle_memo) {
      util::write_bitstring_field(w, input);
      util::write_bitstring_field(w, output);
    }
  }
}

/// Read an element count and reject it unless `min_bits_per_item` elements
/// could actually fit in the remaining payload — a hostile count would
/// otherwise drive the resize() below it into std::length_error / OOM
/// before the bit reader ever notices the truncation.
std::uint64_t read_count(util::BitReader& r, std::uint64_t min_bits_per_item, const char* what) {
  std::uint64_t n = r.read_uint(64);
  if (n > r.remaining() / min_bits_per_item) {
    throw CheckpointError("checkpoint corrupted: " + std::string(what) + " count " +
                          std::to_string(n) + " cannot fit in the remaining " +
                          std::to_string(r.remaining()) + " payload bits");
  }
  return n;
}

Checkpoint deserialize_payload(util::BitReader& r) {
  Checkpoint cp;
  cp.next_round = r.read_uint(64);
  cp.machines = r.read_uint(64);
  cp.local_memory_bits = r.read_uint(64);
  cp.query_budget = r.read_uint(64);
  cp.tape_seed = r.read_uint(64);

  std::uint64_t n_inboxes = read_count(r, 64, "inbox");
  cp.inboxes.resize(n_inboxes);
  for (auto& inbox : cp.inboxes) {
    std::uint64_t n_msgs = read_count(r, 192, "message");
    inbox.resize(n_msgs);
    for (auto& msg : inbox) {
      msg.from = r.read_uint(64);
      msg.to = r.read_uint(64);
      msg.payload = util::read_bitstring_field(r);
    }
  }

  std::uint64_t n_rounds = read_count(r, 5 * 64 + 7 * 128, "round-stats");
  cp.rounds.resize(n_rounds);
  for (auto& s : cp.rounds) {
    s.round = r.read_uint(64);
    s.messages = r.read_uint(64);
    s.communicated_bits = r.read_uint(64);
    s.oracle_queries = r.read_uint(64);
    s.max_inbox_bits = r.read_uint(64);
    s.peak_memory_bits = read_peak(r);
    s.peak_queries = read_peak(r);
    s.peak_fan_out = read_peak(r);
    s.peak_fan_in = read_peak(r);
    s.peak_sent_bits = read_peak(r);
    s.peak_recv_bits = read_peak(r);
    s.peak_message_bits = read_peak(r);
  }

  std::uint64_t n_annotations = read_count(r, 128, "annotation");
  for (std::uint64_t i = 0; i < n_annotations; ++i) {
    std::string key = util::read_string_field(r);
    std::uint64_t n_values = read_count(r, 64, "annotation-value");
    std::vector<std::uint64_t> values(n_values);
    for (auto& v : values) v = r.read_uint(64);
    cp.annotations.emplace(std::move(key), std::move(values));
  }

  std::uint64_t n_records = read_count(r, 5 * 64, "transcript-record");
  cp.transcript.resize(n_records);
  for (auto& rec : cp.transcript) {
    rec.round = r.read_uint(64);
    rec.machine = r.read_uint(64);
    rec.seq = r.read_uint(64);
    rec.input = util::read_bitstring_field(r);
    rec.output = util::read_bitstring_field(r);
  }

  cp.has_oracle = r.read_bool();
  if (cp.has_oracle) {
    cp.oracle_in_bits = r.read_uint(64);
    cp.oracle_out_bits = r.read_uint(64);
    cp.oracle_total_queries = r.read_uint(64);
    std::uint64_t n_memo = read_count(r, 128, "oracle-memo");
    cp.oracle_memo.resize(n_memo);
    for (auto& [input, output] : cp.oracle_memo) {
      input = util::read_bitstring_field(r);
      output = util::read_bitstring_field(r);
    }
  }
  return cp;
}

}  // namespace

Checkpoint capture(const mpc::RoundSnapshot& snapshot, const mpc::MpcConfig& config,
                   const hash::LazyRandomOracle* oracle) {
  Checkpoint cp;
  cp.next_round = snapshot.round + 1;
  cp.machines = config.machines;
  cp.local_memory_bits = config.local_memory_bits;
  cp.query_budget = config.query_budget;
  cp.tape_seed = config.tape_seed;
  cp.inboxes = *snapshot.next_inboxes;
  cp.rounds = snapshot.trace->rounds();
  cp.annotations = snapshot.trace->annotations();
  if (snapshot.transcript != nullptr) cp.transcript = snapshot.transcript->canonical_records();
  if (oracle != nullptr) {
    cp.has_oracle = true;
    cp.oracle_in_bits = oracle->input_bits();
    cp.oracle_out_bits = oracle->output_bits();
    cp.oracle_total_queries = oracle->total_queries();
    cp.oracle_memo = oracle->touched_table();
  }
  return cp;
}

Checkpoint initial_checkpoint(const mpc::MpcConfig& config,
                              const std::vector<util::BitString>& initial_memory,
                              const hash::LazyRandomOracle* oracle) {
  Checkpoint cp;
  cp.next_round = 0;
  cp.machines = config.machines;
  cp.local_memory_bits = config.local_memory_bits;
  cp.query_budget = config.query_budget;
  cp.tape_seed = config.tape_seed;
  cp.inboxes.resize(config.machines);
  for (std::uint64_t i = 0; i < initial_memory.size() && i < config.machines; ++i) {
    if (!initial_memory[i].empty()) cp.inboxes[i].push_back({i, i, initial_memory[i]});
  }
  if (oracle != nullptr) {
    cp.has_oracle = true;
    cp.oracle_in_bits = oracle->input_bits();
    cp.oracle_out_bits = oracle->output_bits();
    // A pristine oracle: no queries, empty memo. (Taking the initial
    // checkpoint after the oracle has been used would make rollback-to-start
    // under-erase; recovery policies take it before running.)
    cp.oracle_total_queries = oracle->total_queries();
    cp.oracle_memo = oracle->touched_table();
  }
  return cp;
}

util::BitString serialize(const Checkpoint& cp) {
  util::BitWriter w = start_frame();
  write_payload(w, cp);
  return seal_frame(w);
}

util::BitString frame_checkpoint_payload(const util::BitString& payload) {
  util::BitWriter w = start_frame();
  w.write_bits(payload);
  return seal_frame(w);
}

Checkpoint deserialize(const util::BitString& bits) {
  util::BitReader r(bits);
  try {
    for (std::size_t i = 0; i < 8; ++i) {
      std::uint64_t b = r.read_uint(8);
      if (b != kMagic[i]) {
        throw CheckpointError("not a checkpoint snapshot: magic byte " + std::to_string(i) +
                              " is 0x" + std::to_string(b) + ", want 0x" +
                              std::to_string(kMagic[i]));
      }
    }
    std::uint64_t version = r.read_uint(64);
    if (version != Checkpoint::kVersion) {
      throw CheckpointError("unsupported checkpoint version " + std::to_string(version) +
                            " (this build reads version " +
                            std::to_string(Checkpoint::kVersion) + ")");
    }
    std::uint64_t payload_bits = r.read_uint(64);
    std::uint64_t stored_checksum = r.read_uint(64);
    if (payload_bits != r.remaining()) {
      throw CheckpointError("checkpoint truncated or padded: header declares " +
                            std::to_string(payload_bits) + " payload bits, " +
                            std::to_string(r.remaining()) + " present");
    }
    // The header is a whole number of bytes, so the payload's packed bytes
    // are the wire's from there on: checksum them in place, then parse on.
    std::uint64_t computed =
        payload_checksum(payload_bits, bits.bytes().subspan(kHeaderBits / 8));
    if (computed != stored_checksum) {
      throw CheckpointError("checkpoint corrupted: checksum mismatch (stored " +
                            std::to_string(stored_checksum) + ", computed " +
                            std::to_string(computed) + ") — refusing to resume");
    }
    Checkpoint cp = deserialize_payload(r);
    if (!r.exhausted()) {
      throw CheckpointError("checkpoint corrupted: " + std::to_string(r.remaining()) +
                            " trailing payload bits after the last field");
    }
    if (cp.inboxes.size() != cp.machines) {
      throw CheckpointError("checkpoint inconsistent: " + std::to_string(cp.inboxes.size()) +
                            " inboxes for m=" + std::to_string(cp.machines));
    }
    return cp;
  } catch (const std::out_of_range& e) {
    throw CheckpointError(std::string("checkpoint truncated: ") + e.what());
  }
}

void save_checkpoint_file(const std::string& path, const Checkpoint& cp) {
  util::write_bits_file(path, serialize(cp));
}

Checkpoint load_checkpoint_file(const std::string& path) {
  util::BitString bits;
  try {
    bits = util::read_bits_file(path);
  } catch (const std::runtime_error& e) {
    throw CheckpointError(std::string("cannot load checkpoint: ") + e.what());
  }
  return deserialize(bits);
}

mpc::MpcResumeState make_resume_state(const Checkpoint& cp, hash::LazyRandomOracle* fresh_oracle) {
  if (cp.has_oracle) {
    if (fresh_oracle == nullptr) {
      throw CheckpointError("checkpoint carries oracle state but no oracle was supplied");
    }
    if (fresh_oracle->input_bits() != cp.oracle_in_bits ||
        fresh_oracle->output_bits() != cp.oracle_out_bits) {
      throw CheckpointError(
          "checkpoint oracle domain/range (" + std::to_string(cp.oracle_in_bits) + " -> " +
          std::to_string(cp.oracle_out_bits) + ") does not match the supplied oracle (" +
          std::to_string(fresh_oracle->input_bits()) + " -> " +
          std::to_string(fresh_oracle->output_bits()) + ")");
    }
    try {
      fresh_oracle->restore_table(cp.oracle_memo, cp.oracle_total_queries);
    } catch (const std::invalid_argument& e) {
      throw CheckpointError(std::string("checkpoint oracle memo rejected: ") + e.what());
    }
  }
  mpc::MpcResumeState state;
  state.next_round = cp.next_round;
  state.inboxes = cp.inboxes;
  state.trace.restore(cp.rounds, cp.annotations);
  state.transcript = std::make_shared<hash::OracleTranscript>();
  state.transcript->restore(cp.transcript);
  return state;
}

}  // namespace mpch::fault
