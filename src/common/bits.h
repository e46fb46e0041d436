// Bit-manipulation helpers shared by the tree algorithms.
//
// Binary trees throughout the library (WATs, winner-selection trees, fat
// trees) are stored as implicit heaps: node i has children 2i+1 / 2i+2 and
// parent (i-1)/2.  These helpers keep the index arithmetic in one place.
#pragma once

#include <bit>
#include <cstdint>

#include "common/check.h"

namespace wfsort {

// True iff x is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// floor(log2(x)); requires x >= 1.
constexpr std::uint32_t log2_floor(std::uint64_t x) {
  return 63u - static_cast<std::uint32_t>(std::countl_zero(x | 1));
}

// ceil(log2(x)); requires x >= 1.  log2_ceil(1) == 0.
constexpr std::uint32_t log2_ceil(std::uint64_t x) {
  return x <= 1 ? 0u : log2_floor(x - 1) + 1u;
}

// Smallest power of two >= x (x >= 1).
constexpr std::uint64_t next_pow2(std::uint64_t x) {
  return x <= 1 ? 1 : std::uint64_t{1} << log2_ceil(x);
}

// Reverse the low `bits` bits of x (bits <= 64; higher input bits are
// dropped).  Enumerating 0..2^bits-1 through bit_reverse visits every value
// once in an order where consecutive outputs differ in their HIGH bits — a
// deterministic shuffle, used to break up sorted runs before insertion.
// Branch-free: reverse all 64 bits by swapping ever larger halves, then
// shift the low `bits` bits (now on top) back down.
constexpr std::uint64_t bit_reverse(std::uint64_t x, std::uint32_t bits) {
  if (bits == 0) return 0;
  x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
  x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
  x = ((x >> 8) & 0x00FF00FF00FF00FFULL) | ((x & 0x00FF00FF00FF00FFULL) << 8);
  x = ((x >> 16) & 0x0000FFFF0000FFFFULL) | ((x & 0x0000FFFF0000FFFFULL) << 16);
  x = (x >> 32) | (x << 32);
  return x >> (64u - bits);
}

// --- Bit-reversed stripes ----------------------------------------------------
//
// Stripe `s` of stride J over [0, n) is the index set {s, s+J, s+2J, ...}
// below n.  Stripe enumerates it in BIT-REVERSED OFFSET order: the k-th
// visit is offset bit_reverse(k) (over the smallest power of two covering
// the stripe; offsets past its end are skipped), so the first visits halve,
// then quarter, ... the stripe's span.  A presorted run inserted in that
// order builds a balanced pivot tree instead of a chain.  Skipping offsets
// past the end is the same as enumerating over any wider power of two:
// bit_reverse(2m, b+1) == bit_reverse(m, b), and odd k land at offsets
// >= 2^b.
class Stripe {
 public:
  constexpr Stripe(std::uint64_t s, std::uint64_t stride, std::uint64_t n)
      : base_(s),
        stride_(stride),
        len_(s < n ? (n - s + stride - 1) / stride : 0),
        bits_(log2_ceil(len_)) {}

  // Store the stripe's next index in `i`; false once it is exhausted.
  constexpr bool next(std::uint64_t& i) {
    while (k_ < (std::uint64_t{1} << bits_)) {
      const std::uint64_t off = bit_reverse(k_++, bits_);
      if (off < len_) {
        i = base_ + off * stride_;
        return true;
      }
    }
    return false;
  }

 private:
  std::uint64_t base_;
  std::uint64_t stride_;
  std::uint64_t len_;
  std::uint32_t bits_;
  std::uint64_t k_ = 0;
};

// The pivot-tree build's job space over n elements at batch size `batch`
// (the paper's K): J = next_pow2(ceil(n / batch)) jobs, and job j inserts
// stripe bit_reverse(j) of stride J — at most `batch` elements, since
// J >= n / batch.  The stripes partition [0, n).  A worker claiming jobs
// 0, 1, 2, ... visits stripes 0, J/2, J/4, 3J/4, ..., each in bit-reversed
// offset order: for a power-of-two n it inserts element bit_reverse(p) at
// step p, so every prefix of the insertion order is an even sample of the
// whole index range.
struct StripedJobs {
  std::uint64_t n;
  std::uint64_t jobs;  // J, a power of two
  std::uint32_t job_bits;

  constexpr StripedJobs(std::uint64_t elements, std::uint64_t batch)
      : n(elements),
        jobs(next_pow2((elements + batch - 1) / batch)),
        job_bits(log2_floor(jobs)) {}

  constexpr Stripe stripe(std::uint64_t job) const {
    return Stripe(bit_reverse(job, job_bits), jobs, n);
  }
};

// Integer square root (floor).
constexpr std::uint64_t isqrt(std::uint64_t x) {
  std::uint64_t r = 0;
  std::uint64_t bit = std::uint64_t{1} << 62;
  while (bit > x) bit >>= 2;
  while (bit != 0) {
    if (x >= r + bit) {
      x -= r + bit;
      r = (r >> 1) + bit;
    } else {
      r >>= 1;
    }
    bit >>= 2;
  }
  return r;
}

// --- Implicit complete binary tree over 2*L-1 nodes with L leaves -----------
//
// Layout: node 0 is the root; leaves occupy indices [L-1, 2L-2] in left-to-
// right order.  L must be a power of two.

struct HeapTree {
  std::uint64_t leaves;  // number of leaves, power of two

  constexpr explicit HeapTree(std::uint64_t num_leaves) : leaves(num_leaves) {}

  constexpr std::uint64_t nodes() const { return 2 * leaves - 1; }
  constexpr std::uint64_t root() const { return 0; }
  constexpr std::uint32_t depth() const { return log2_floor(leaves); }

  constexpr bool is_leaf(std::uint64_t i) const { return i >= leaves - 1; }
  constexpr bool is_root(std::uint64_t i) const { return i == 0; }

  constexpr std::uint64_t left(std::uint64_t i) const { return 2 * i + 1; }
  constexpr std::uint64_t right(std::uint64_t i) const { return 2 * i + 2; }
  constexpr std::uint64_t parent(std::uint64_t i) const { return (i - 1) / 2; }
  constexpr std::uint64_t sibling(std::uint64_t i) const {
    return ((i & 1) != 0) ? i + 1 : i - 1;  // odd = left child, even = right
  }

  // Index of the k-th leaf (k in [0, leaves)).
  constexpr std::uint64_t leaf(std::uint64_t k) const { return leaves - 1 + k; }
  // Inverse of leaf().
  constexpr std::uint64_t leaf_rank(std::uint64_t i) const { return i - (leaves - 1); }

  // Depth of node i (root = 0).
  constexpr std::uint32_t node_depth(std::uint64_t i) const { return log2_floor(i + 1); }
};

}  // namespace wfsort
