// Streaming latency sketches — HDR-style log-linear bucket histograms with
// mergeable snapshots and quantile extraction.
//
// The existing LogHistogram answers "how is per-element work distributed"
// with 32 power-of-two buckets; that is far too coarse for latency SLOs
// (p99 vs p999 usually live inside one octave).  A LatencySketch subdivides
// every octave into 2^kSubBits linear sub-buckets, so any reported quantile
// is within a documented relative error of the exact sample percentile
// (see kRelativeError; test_ring.cpp checks the bound against exact
// percentiles).  Adds are O(1) (a bit_width and two array ops), snapshots
// are plain data, and merge() is bucket-wise addition, so per-worker
// sketches combine exactly.  Report::phase_sketch feeds one per phase.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace wfsort::telemetry {

class LatencySketch {
 public:
  // Sub-bucket resolution: 2^5 = 32 linear buckets per octave.
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint32_t kSub = 1u << kSubBits;
  // A bucket's representative value (its midpoint) is within half a bucket
  // width of every sample in it; widths are at most value / kSub, so any
  // quantile is within 1/(2*kSub) ≈ 1.6% relative error — documented (and
  // tested) conservatively as 1/kSub ≈ 3.2%.
  static constexpr double kRelativeError = 1.0 / kSub;
  // Values < kSub get exact unit buckets; each octave above contributes kSub
  // buckets, up to the top bit of uint64.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(65 - kSubBits) << kSubBits;

  void add(std::uint64_t value) {
    ++counts_[bucket_of(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  void merge(const LatencySketch& other) {
    for (std::size_t b = 0; b < kBucketCount; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // The q-quantile (q in (0, 1]) as the representative value of the bucket
  // holding the ceil(q * count)-th smallest sample; 0 when empty.
  std::uint64_t quantile(double q) const {
    if (count_ == 0) return 0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      cum += counts_[b];
      if (cum >= rank) return representative(b);
    }
    return max_;
  }

  static std::size_t bucket_of(std::uint64_t value) {
    if (value < kSub) return static_cast<std::size_t>(value);
    const std::uint32_t shift =
        static_cast<std::uint32_t>(std::bit_width(value)) - 1 - kSubBits;
    return (static_cast<std::size_t>(shift + 1) << kSubBits) |
           static_cast<std::size_t>((value >> shift) & (kSub - 1));
  }

  // Midpoint of the bucket's value range (exact for the unit buckets).
  static std::uint64_t representative(std::size_t bucket) {
    if (bucket < kSub) return bucket;
    const std::uint32_t shift =
        static_cast<std::uint32_t>(bucket >> kSubBits) - 1;
    const std::uint64_t sub = bucket & (kSub - 1);
    const std::uint64_t lo = (static_cast<std::uint64_t>(kSub) + sub) << shift;
    return lo + ((1ull << shift) >> 1);
  }

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace wfsort::telemetry
