// auth.hpp — authenticated messaging and round attestation for the MPC model.
//
// The paper works in the random oracle model, and the RO doubles as a
// PRF/MAC: parties sharing the (secret) tape seed can tag messages with an
// RO-derived authenticator no bounded adversary who lacks the seed can forge.
// This module builds the two integrity primitives the Byzantine fault stack
// (src/fault) rests on:
//
//  * message_tag — a 64-bit MAC over (tape seed, round, sender, receiver,
//    payload). With MpcConfig::authenticate_messages on, MachineIo::send
//    appends the tag to every payload and delivery verifies it at the round
//    barrier; any payload flip or sender spoof surfaces as a typed
//    TamperViolation naming the receiving machine, the round, and the byte
//    offset of the failing message inside the receiver's inbox. Tag bits
//    travel inside the payload, so they are metered against s and against
//    the communication stats exactly like protocol bits — the model stays
//    honest about the cost of authentication.
//
//  * attestation_digest — a 64-bit digest of one machine's end-of-round
//    state (its next-round inbox, which by Definition 2.1 *is* its entire
//    cross-round state). It is a pure function of that inbox, so nothing
//    computes it per round: the quarantine policy (fault/recovery.hpp)
//    derives the digests from the live and replica checkpoints of a round
//    whose state diverged, to localise which machine a silent Byzantine
//    fault corrupted.
//
// Both derivations are domain-separated uses of the same SHA-256 expander
// that implements the oracle and the shared tape, so the security argument
// inherits the RO-model assumption the whole repository already makes. A
// tag hashes one short message, so it is one hash::sha256_expand_u64 call
// (usually a single two-block compression); attestation hashes a whole
// inbox and streams it through hash::Sha256.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpc/message.hpp"
#include "util/bitstring.hpp"

namespace mpch::mpc {

/// Width of the MAC tag MachineIo::send appends under authenticate_messages.
inline constexpr std::uint64_t kMessageTagBits = 64;

/// Local memory added to each machine's budget to hold its messages' tags.
inline constexpr std::uint64_t kTagMemoryHeadroomBits = 1 << 16;

/// MAC over (tape seed, round, from, to, payload): the tag appended to a
/// message sent in `round`. Pure function — recomputable by the verifier and
/// by recovery policies from checkpointed state.
util::BitString message_tag(std::uint64_t tape_seed, std::uint64_t round, std::uint64_t from,
                            std::uint64_t to, const util::BitString& payload);

/// The same tag as an integer, over the first `body_bits` of `payload`
/// (body_bits <= payload.size()), so a tagged payload is verified and an
/// untagged one tagged without slicing or a temporary: one
/// hash::sha256_expand_u64 call over the stack-built "MMAC" head and the
/// body's bytes in place.
std::uint64_t message_tag_u64(std::uint64_t tape_seed, std::uint64_t round, std::uint64_t from,
                              std::uint64_t to, const util::BitString& payload,
                              std::size_t body_bits);

/// 64-bit digest of machine `machine`'s end-of-round state (the inbox it
/// will start the next round with), bound to the tape seed and the round.
std::uint64_t attestation_digest(std::uint64_t tape_seed, std::uint64_t round,
                                 std::uint64_t machine, const std::vector<Message>& inbox);

/// All m digests for a round barrier, in machine index order.
std::vector<std::uint64_t> attestation_digests(std::uint64_t tape_seed, std::uint64_t round,
                                               const std::vector<std::vector<Message>>& inboxes);

/// A message failed MAC verification at delivery. Carries full provenance:
/// the receiving machine, the round whose barrier detected it, the index of
/// the failing message in the receiver's merged inbox, and the byte offset
/// of that message within the inbox (cumulative over preceding payloads).
class TamperViolation : public std::runtime_error {
 public:
  TamperViolation(std::uint64_t machine, std::uint64_t round, std::uint64_t message_index,
                  std::uint64_t byte_offset, const std::string& what)
      : std::runtime_error(what),
        machine_(machine),
        round_(round),
        message_index_(message_index),
        byte_offset_(byte_offset) {}

  std::uint64_t machine() const { return machine_; }
  std::uint64_t round() const { return round_; }
  std::uint64_t message_index() const { return message_index_; }
  std::uint64_t byte_offset() const { return byte_offset_; }

 private:
  std::uint64_t machine_;
  std::uint64_t round_;
  std::uint64_t message_index_;
  std::uint64_t byte_offset_;
};

/// Verify every tag in `inbox` (machine `machine`'s merged deliveries for
/// the barrier of `round`). Throws TamperViolation on the first mismatch,
/// including a truncated payload too short to even carry a tag.
void verify_inbox_tags(std::uint64_t tape_seed, std::uint64_t round, std::uint64_t machine,
                       const std::vector<Message>& inbox);

/// Strip the tags of a tagged inbox in place: each payload loses its
/// trailing kMessageTagBits and keeps its buffer. The result is what the
/// algorithm sees — protocols are unaware of authentication. Call only on
/// verified inboxes.
void strip_tags(std::vector<Message>& inbox);

}  // namespace mpch::mpc
