// bitwriter_differential_test.cpp — the streaming BitWriter against the
// BitString-append ReferenceBitWriter.
//
// Random op sequences (write_uint at widths 0-66, some values too wide for
// their field; write_bool; write_bits of 0-300 bits) and an exhaustive sweep
// of write_bits at every alignment on both sides of the 128-bit inline
// boundary must give the same bits, the same bit_count after every op, and
// the same exception type and message; a BitReader must read every accepted
// field back. The binary also counts heap allocations, to pin that an
// encoding of up to 128 bits never leaves BitString's inline storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference_bitwriter.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// Sanitizer runtimes supply their own array forms, which would bypass the
// count: route them through the counting operator new explicitly.
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mpch::util {
namespace {

enum class OpKind { kUint, kBool, kBits };

struct Op {
  OpKind kind = OpKind::kUint;
  std::uint64_t value = 0;
  std::size_t width = 0;
  BitString bits;
};

BitString random_bits(Rng& rng, std::size_t len) {
  return BitString::random(len, [&] { return rng.next_u64(); });
}

template <typename Writer>
std::string apply(Writer& w, const Op& op) {
  try {
    switch (op.kind) {
      case OpKind::kUint: w.write_uint(op.value, op.width); break;
      case OpKind::kBool: w.write_bool(op.value != 0); break;
      case OpKind::kBits: w.write_bits(op.bits); break;
    }
    return "ok";
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("other: ") + e.what();
  }
}

/// Run `ops` on both writers and check they agree op by op, then read the
/// accepted fields back from the streaming writer's output.
void check_sequence(const std::vector<Op>& ops, const std::string& label) {
  BitWriter w;
  ReferenceBitWriter ref;
  std::vector<const Op*> accepted;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::string got = apply(w, ops[i]);
    ASSERT_EQ(got, apply(ref, ops[i])) << label << ", op " << i;
    ASSERT_EQ(w.bit_count(), ref.bit_count()) << label << ", op " << i;
    if (got == "ok") accepted.push_back(&ops[i]);
  }
  const BitString out = w.take();
  ASSERT_EQ(out, ref.take()) << label;
  EXPECT_EQ(w.bit_count(), 0u) << label;

  BitReader r(out);
  for (const Op* op : accepted) {
    switch (op->kind) {
      case OpKind::kUint: ASSERT_EQ(r.read_uint(op->width), op->value) << label; break;
      case OpKind::kBool: ASSERT_EQ(r.read_bool(), op->value != 0) << label; break;
      case OpKind::kBits: ASSERT_EQ(r.read_bits(op->bits.size()), op->bits) << label; break;
    }
  }
  EXPECT_TRUE(r.exhausted()) << label;
}

TEST(BitWriterDifferential, RandomOpSequencesMatchReference) {
  Rng rng(2026);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<Op> ops(1 + rng.next_below(24));
    for (Op& op : ops) {
      switch (rng.next_below(3)) {
        case 0:
          op.kind = OpKind::kUint;
          op.width = rng.next_below(67);  // 65 and 66 must throw
          op.value = rng.next_u64();
          // Mostly values that fit; one in eight keeps its high bits.
          if (op.width < 64 && rng.next_below(8) != 0) op.value &= (1ULL << op.width) - 1;
          break;
        case 1:
          op.kind = OpKind::kBool;
          op.value = rng.next_below(2);
          break;
        default:
          op.kind = OpKind::kBits;
          op.bits = random_bits(rng, rng.next_below(301));
          break;
      }
    }
    check_sequence(ops, "iter " + std::to_string(iter));
    if (HasFatalFailure()) return;
  }
}

TEST(BitWriterDifferential, WriteBitsAtEveryAlignmentAcrossTheInlineBoundary) {
  // A prefix of 0-136 bits puts write_bits at every alignment, byte-aligned
  // (the memcpy path) or not, below, at and above the 128-bit boundary; a
  // 13-bit and a 64-bit field after it check the accumulator the copy left
  // behind, up to its next full-word flush.
  Rng rng(18);
  for (std::size_t prefix = 0; prefix <= 136; ++prefix) {
    for (std::size_t len = 0; len <= 300; ++len) {
      std::vector<Op> ops;
      for (std::size_t done = 0; done < prefix;) {
        Op op;
        op.width = std::min<std::size_t>(64, prefix - done);
        op.value = rng.next_u64() & (op.width == 64 ? ~0ULL : (1ULL << op.width) - 1);
        done += op.width;
        ops.push_back(op);
      }
      Op bits;
      bits.kind = OpKind::kBits;
      bits.bits = random_bits(rng, len);
      ops.push_back(bits);
      for (std::size_t width : {13, 64}) {
        Op tail;
        tail.width = width;
        tail.value = rng.next_u64() >> (64 - width);
        ops.push_back(tail);
      }
      check_sequence(ops, "prefix " + std::to_string(prefix) + ", len " + std::to_string(len));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BitWriterDifferential, WriterIsReusableAfterTake) {
  BitWriter w;
  ReferenceBitWriter ref;
  for (std::size_t round = 0; round < 3; ++round) {
    const BitString bits = BitString::from_uint(0x2D5 + round, 11);
    w.write_uint(5, 3);
    w.write_bits(bits);
    ref.write_uint(5, 3);
    ref.write_bits(bits);
    EXPECT_EQ(w.take(), ref.take()) << "round " << round;
  }
}

TEST(BitWriterHeap, ResultsOfAtMost128BitsStayInline) {
  // Pieces of every width, built before counting starts.
  Rng rng(5);
  std::vector<BitString> pieces;
  for (std::size_t len = 0; len <= 64; ++len) pieces.push_back(random_bits(rng, len));
  const std::size_t widths[] = {1, 7, 13, 64, 3, 8, 29};

  auto allocations_for = [&](std::size_t total) {
    const std::size_t before = g_allocations;
    std::size_t got = 0;
    {
      BitWriter w;
      for (std::size_t i = 0, done = 0; done < total; ++i) {
        const std::size_t width = std::min(total - done, widths[i % std::size(widths)]);
        if (i % 2 == 0) {
          w.write_uint(pieces[width].get_uint(0, width), width);
        } else {
          w.write_bits(pieces[width]);
        }
        done += width;
      }
      got = w.take().size();
    }
    const std::size_t made = g_allocations - before;
    EXPECT_EQ(got, total);
    return made;
  };
  for (std::size_t total : {0, 1, 8, 63, 64, 65, 76, 100, 120, 127, 128}) {
    EXPECT_EQ(allocations_for(total), 0u) << total << " bits";
  }
  // The counter is live: past 128 bits the result moves to the heap.
  EXPECT_GT(allocations_for(129), 0u);
}

}  // namespace
}  // namespace mpch::util
