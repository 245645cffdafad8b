// Lock-free metrics primitives for the serving path (ISSUE 10 tentpole
// part 1). Everything here is built for ONE discipline: writers on the
// hot path pay a relaxed atomic add (no locks, no allocation, no fences
// stronger than relaxed), and readers may snapshot from any thread WHILE
// writers run. Values observed mid-run are individually exact and
// monotone; across cells only the orderings a writer publishes with
// release hold (telemetry.hpp's ShardCounters uses that for the live
// accounting identity).
//
// The histogram is log2-bucketed: Record(v) lands v in bucket
// bit_width(v) (bucket 0 holds exactly {0}, bucket k>=1 holds
// [2^(k-1), 2^k)). 64 buckets cover the full u64 range, so a nanosecond
// latency histogram spans 1ns..584 years with 64 words of storage and a
// single `bit_width` + `fetch_add` per record. Quantiles interpolate
// linearly inside the winning bucket — exact enough to tell p50 from
// p999 across orders of magnitude, which is what latency histograms are
// for (HdrHistogram-style; finer resolution would buy precision the
// sampled measurements don't have).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace pegasus::telemetry {

/// One relaxed-atomic counter cell. Cells are not padded: a block of them
/// (telemetry.hpp's ShardCounters) shares cache lines, and the block is
/// what gets cache-line aligned. Writers follow the single-writer
/// discipline — a relaxed load + store, never a locked read-modify-write —
/// except AddShared, for the rare cell several threads bump. Any thread
/// may read at any time.
class Cell {
 public:
  void Add(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  /// Add whose new value is published with release: a reader that
  /// acquire-loads it also sees every earlier write of the same writer.
  void AddRelease(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_release);
  }
  /// Multi-writer add.
  void AddShared(std::uint64_t n) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void Set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::uint64_t Acquire() const { return v_.load(std::memory_order_acquire); }
  void Reset() { Set(0); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index of a recorded value: 0 for 0, else bit_width(v) (clamped
/// by construction — bit_width(u64) <= 64, and bucket 64 would need
/// v >= 2^63 which maps to index 64... so clamp to 63).
inline std::size_t HistogramBucketOf(std::uint64_t v) {
  const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

/// Inclusive lower bound of bucket i (0, 1, 2, 4, 8, ...).
inline std::uint64_t HistogramBucketLow(std::size_t i) {
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

/// Inclusive upper bound of bucket i (0, 1, 3, 7, 15, ...).
inline std::uint64_t HistogramBucketHigh(std::size_t i) {
  if (i == 0) return 0;
  if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

/// A plain (non-atomic) copy of a histogram's state: what snapshotters
/// hand to quantile extraction, merging and the exposition writers.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) /
                                  static_cast<double>(count);
  }

  HistogramSnapshot& Merge(const HistogramSnapshot& o) {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      buckets[i] += o.buckets[i];
    }
    count += o.count;
    sum += o.sum;
    return *this;
  }

  /// Value at quantile q in [0, 1]: walk the cumulative bucket counts to
  /// the bucket holding rank ceil(q * count), then interpolate linearly
  /// between the bucket's bounds by the rank's position inside it. Exact
  /// for single-bucket data; within one power of two otherwise.
  double Quantile(double q) const {
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank in [1, count]. ceil() without the float round-trip drama:
    // q*count then clamp.
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (rank < 1) rank = 1;
    if (rank > count) rank = count;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (buckets[i] == 0) continue;
      if (cum + buckets[i] >= rank) {
        const double lo = static_cast<double>(HistogramBucketLow(i));
        const double hi = static_cast<double>(HistogramBucketHigh(i));
        const double within =
            static_cast<double>(rank - cum) / static_cast<double>(buckets[i]);
        return lo + (hi - lo) * within;
      }
      cum += buckets[i];
    }
    return static_cast<double>(HistogramBucketHigh(kHistogramBuckets - 1));
  }
};

/// The writer side: 64 relaxed-atomic buckets + count + sum. Record() is
/// wait-free (one bit_width, three fetch_adds); Snapshot() is callable
/// from any thread at any time.
class Log2Histogram {
 public:
  void Record(std::uint64_t v) {
    buckets_[HistogramBucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    // Derive count from the bucket reads so the snapshot is internally
    // consistent even if a Record() lands between the loops; sum stays
    // approximate mid-run (exact once writers quiesce).
    s.count = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) s.count += s.buckets[i];
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace pegasus::telemetry
