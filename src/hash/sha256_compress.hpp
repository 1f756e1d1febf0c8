// sha256_compress.hpp — the SHA-256 compression functions behind Sha256.
//
// Internal header: the library calls only the dispatched compress(); the
// scalar and SHA-NI variants are exposed so tests and the fuzz harness can
// compare them directly. Each function folds `nblocks` consecutive 64-byte
// blocks into `state` (the eight FIPS 180-4 working words H0..H7).
//
// The scalar variant is the FIPS 180-4 round loop and the reference every
// other path is tested against; it is the only path on CPUs and
// architectures without the SHA extensions. The SHA-NI variant is compiled
// only on x86, in a single function carrying its own target attribute, so
// the rest of the build needs no ISA flag and the binary still runs on CPUs
// without SHA-NI.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define MPCH_SHA256_HAVE_SHANI 1
#endif

namespace mpch::hash::detail {

using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks);

void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks);

#ifdef MPCH_SHA256_HAVE_SHANI
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks);
#endif

/// True when this build has the SHA-NI path and the CPU supports it
/// (SHA, SSE4.1 and SSSE3). Checked once; safe to call before main.
bool shani_supported();

/// The compression function Sha256 uses: SHA-NI when supported, else scalar.
void compress(std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks);

}  // namespace mpch::hash::detail
