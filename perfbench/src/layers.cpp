// Layer microbenches over the inputs the traced replay captured: the
// workload's own oracle inputs, payloads, tagged inboxes, frames and
// snapshots. Each metric is the median over repeated passes; set-up that is
// not the layer's work (fresh oracles, warm memos, tagged copies) runs
// outside the timed part of every pass. Each layer's output on the captured
// inputs is checked once before it is timed.
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "hash/oracle_transcript.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/auth.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 5;
constexpr std::size_t kMaxPasses = 2000;
constexpr double kMinPassTimeNs = 40e6;

/// Keeps results observable so no timed call is dropped.
std::uint64_t g_sink = 0;

struct Timing {
  double ns_per_op = 0;
  std::uint64_t passes = 0;
};

/// Median over passes of (timed part) / ops. `setup` runs before every pass,
/// untimed.
Timing time_passes(const std::function<void()>& setup, const std::function<void()>& timed,
                   double ops) {
  if (ops <= 0) throw std::logic_error("microbench without operations");
  std::vector<double> per_op;
  double spent = 0;
  while (per_op.size() < kMinPasses || (spent < kMinPassTimeNs && per_op.size() < kMaxPasses)) {
    setup();
    const auto start = Clock::now();
    timed();
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    spent += ns;
    per_op.push_back(ns / ops);
  }
  return {median(per_op), per_op.size()};
}

void no_setup() {}

void add(std::vector<Metric>* out, const std::string& name, const Timing& t) {
  out->push_back({name, "ns", t.ns_per_op, t.passes});
}

std::uint64_t sha_blocks(std::size_t bytes) { return (bytes + 9 + 63) / 64; }

void bench_hash(const Capture& cap, std::vector<Metric>* out) {
  // SHA-256 over the workload's own message and oracle-input sizes.
  std::vector<std::vector<std::uint8_t>> buffers;
  for (const auto& s : cap.oracle) buffers.push_back(s.input.bytes());
  for (const auto& f : cap.frames) buffers.push_back(f.payload.bytes());
  double blocks = 0;
  for (const auto& b : buffers) blocks += double(sha_blocks(b.size()));
  add(out, "hash.sha256_ns_per_block", time_passes(no_setup, [&] {
        for (const auto& b : buffers) g_sink += hash::Sha256::hash(b)[0];
      }, blocks));

  // One oracle per family, as the workload's jobs built them.
  std::map<serve::OracleFamily, std::vector<util::BitString>> inputs;
  {
    std::map<serve::OracleFamily, std::set<util::BitString>> seen;
    for (const auto& s : cap.oracle) {
      if (seen[s.family].insert(s.input).second) inputs[s.family].push_back(s.input);
    }
  }
  for (const auto& s : cap.oracle) {
    hash::LazyRandomOracle check(s.family.in_bits, s.family.out_bits, s.family.seed);
    if (check.query(s.input) != s.output) {
      throw std::runtime_error("oracle answer differs from the captured one");
    }
  }
  double distinct = 0;
  for (const auto& [family, list] : inputs) distinct += double(list.size());

  using MemoMap = std::map<serve::OracleFamily, std::shared_ptr<hash::SharedOracleMemo>>;
  std::vector<std::shared_ptr<hash::LazyRandomOracle>> oracles;
  auto fresh = [&](bool warm, MemoMap* memos) {
    oracles.clear();
    for (const auto& [family, list] : inputs) {
      auto o = std::make_shared<hash::LazyRandomOracle>(family.in_bits, family.out_bits,
                                                        family.seed);
      if (memos != nullptr) o->attach_shared_memo(memos->at(family));
      if (warm) {
        for (const auto& in : list) g_sink += o->query(in).size();
      }
      oracles.push_back(std::move(o));
    }
  };
  auto query_all = [&] {
    std::size_t k = 0;
    for (const auto& [family, list] : inputs) {
      for (const auto& in : list) g_sink += oracles[k]->query(in).size();
      ++k;
    }
  };
  add(out, "hash.derive_ns", time_passes([&] { fresh(false, nullptr); }, query_all, distinct));
  add(out, "hash.local_hit_ns", time_passes([&] { fresh(true, nullptr); }, query_all, distinct));
  MemoMap memos;
  for (const auto& [family, list] : inputs) {
    memos[family] =
        std::make_shared<hash::SharedOracleMemo>(family.in_bits, family.out_bits, family.seed);
  }
  fresh(true, &memos);  // warms every shared memo
  add(out, "hash.shared_hit_ns", time_passes([&] { fresh(false, &memos); }, query_all, distinct));
  oracles.clear();

  std::shared_ptr<hash::OracleTranscript> transcript;
  add(out, "hash.transcript_record_ns",
      time_passes([&] { transcript = std::make_shared<hash::OracleTranscript>(); },
                  [&] {
                    std::uint64_t seq = 0;
                    for (const auto& s : cap.oracle) {
                      transcript->record(0, 0, s.input, s.output, seq++);
                    }
                  },
                  double(cap.oracle.size())));
}

void bench_bitstring(const Capture& cap, std::vector<Metric>* out) {
  std::vector<util::BitString> payloads;
  for (const auto& f : cap.frames) {
    if (f.payload.size() >= 2) payloads.push_back(f.payload);
  }
  if (payloads.empty()) throw std::runtime_error("no captured payloads of two or more bits");
  double concat_bits = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    concat_bits += double(payloads[i].size() + payloads[(i + 1) % payloads.size()].size());
  }
  add(out, "util.bitstring_concat_ns_per_bit", time_passes(no_setup, [&] {
        for (std::size_t i = 0; i < payloads.size(); ++i) {
          g_sink += (payloads[i] + payloads[(i + 1) % payloads.size()]).size();
        }
      }, concat_bits));

  double slice_bits = 0;
  for (const auto& p : payloads) slice_bits += double(p.size());
  add(out, "util.bitstring_slice_ns_per_bit", time_passes(no_setup, [&] {
        for (const auto& p : payloads) {
          const std::size_t half = p.size() / 2;
          g_sink += p.slice(0, half).size() + p.slice(half, p.size() - half).size();
        }
      }, slice_bits));

  // Unaligned 64-bit field writes across a snapshot-sized buffer, the
  // pattern of checkpoint serialization.
  util::BitString buffer(cap.checkpoints.front().size());
  double writes = 0;
  for (std::size_t pos = 0; pos + 64 <= buffer.size(); pos += 67) writes += 1;
  add(out, "util.bitstring_set_uint_ns", time_passes(no_setup, [&] {
        for (std::size_t pos = 0; pos + 64 <= buffer.size(); pos += 67) {
          buffer.set_uint(pos, 64, pos * 0x9E3779B97F4A7C15ULL);
        }
        g_sink += buffer.get_uint(0, 8);
      }, writes));
}

void bench_auth(const Capture& cap, std::vector<Metric>* out) {
  // Plain payloads of every captured inbox, and their tagged form.
  std::vector<Capture::Inbox> plain = cap.inboxes;
  std::vector<Capture::Inbox> tagged = cap.inboxes;
  double messages = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    Capture::Inbox& p = plain[i];
    for (std::size_t k = 0; k < p.messages.size(); ++k) {
      mpc::Message& msg = p.messages[k];
      if (p.tagged) msg.payload.truncate(msg.payload.size() - mpc::kMessageTagBits);
      tagged[i].messages[k].payload =
          msg.payload + mpc::message_tag(p.tape_seed, p.round, msg.from, msg.to, msg.payload);
    }
    if (p.tagged && tagged[i].messages != cap.inboxes[i].messages) {
      throw std::runtime_error("recomputed MAC tags differ from the captured ones");
    }
    messages += double(p.messages.size());
  }
  add(out, "mpc.auth_tag_ns_per_msg", time_passes(no_setup, [&] {
        for (const auto& p : plain) {
          for (const auto& msg : p.messages) {
            g_sink += mpc::message_tag(p.tape_seed, p.round, msg.from, msg.to, msg.payload).size();
          }
        }
      }, messages));
  add(out, "mpc.auth_verify_ns_per_msg", time_passes(no_setup, [&] {
        for (const auto& t : tagged) mpc::verify_inbox_tags(t.tape_seed, t.round, t.to, t.messages);
      }, messages));
}

void bench_wire(const Capture& cap, std::vector<Metric>* out) {
  // Frames decode one buffer each: one long stream would time the
  // decoder's buffer compaction, not its per-frame work.
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const auto& f : cap.frames) {
    encoded.push_back(transport::encode_frame(f));
    const auto back = transport::decode_frames(encoded.back());
    if (back.size() != 1 || back.front() != f) {
      throw std::runtime_error("MPCF decode does not return the encoded frame");
    }
  }
  const double frames = double(cap.frames.size());
  add(out, "transport.wire_encode_ns_per_frame", time_passes(no_setup, [&] {
        for (const auto& f : cap.frames) g_sink += transport::encode_frame(f).size();
      }, frames));
  add(out, "transport.wire_decode_ns_per_frame", time_passes(no_setup, [&] {
        for (const auto& bytes : encoded) g_sink += transport::decode_frames(bytes).size();
      }, frames));
}

}  // namespace

std::vector<Metric> layer_microbenches(const Capture& capture) {
  if (!capture.full()) throw std::logic_error("layer microbenches need a full capture");
  std::vector<Metric> out;
  bench_hash(capture, &out);
  bench_bitstring(capture, &out);
  bench_auth(capture, &out);
  bench_wire(capture, &out);
  return out;
}

}  // namespace perfbench
