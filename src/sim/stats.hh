/**
 * @file
 * Statistics primitives used across the BM-Store model.
 *
 * LatencyHistogram is HDR-style (log2 octaves with linear sub-buckets)
 * so p99/p99.9 for Fig. 12 are accurate without storing raw samples.
 */

#ifndef BMS_SIM_STATS_HH
#define BMS_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace bms::sim {

/**
 * Fixed-memory latency histogram with ~3% relative error.
 *
 * Values are bucketed into 64 octaves x 32 linear sub-buckets.
 * Quantiles interpolate within the winning sub-bucket.
 */
class LatencyHistogram
{
  public:
    static constexpr int kSubBits = 5;                  // 32 sub-buckets
    static constexpr int kSub = 1 << kSubBits;
    static constexpr int kOctaves = 64;

    void add(Tick value);

    std::uint64_t count() const { return _count; }
    Tick min() const { return _count ? _min : 0; }
    Tick max() const { return _count ? _max : 0; }

    /** Arithmetic mean of recorded values. */
    double mean() const;

    /**
     * Quantile @p q in [0, 1]; e.g. 0.99 for p99. Returns 0 when
     * empty.
     */
    Tick quantile(double q) const;

    Tick p50() const { return quantile(0.50); }
    Tick p99() const { return quantile(0.99); }
    Tick p999() const { return quantile(0.999); }

    /** Merge another histogram into this one. */
    void merge(const LatencyHistogram &other);

  private:
    static int bucketIndex(Tick value);
    static Tick bucketLow(int index);
    static Tick bucketHigh(int index);

    std::array<std::uint64_t, kOctaves * kSub> _buckets{};
    std::uint64_t _count = 0;
    double _sum = 0.0;
    Tick _min = kTickMax;
    Tick _max = 0;
};

/**
 * Periodic time series of a rate (e.g., IOPS per 100 ms window) for
 * the Fig. 15 hot-upgrade timeline.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Tick bucket_width = milliseconds(100))
        : _width(bucket_width)
    {}

    void
    record(Tick now, std::uint64_t weight = 1)
    {
        std::size_t idx = static_cast<std::size_t>(now / _width);
        if (idx >= _counts.size())
            _counts.resize(idx + 1, 0);
        _counts[idx] += weight;
    }

    const std::vector<std::uint64_t> &counts() const { return _counts; }

    /** Count of bucket @p i expressed as a per-second rate. */
    double
    rateAt(std::size_t i) const
    {
        if (i >= _counts.size())
            return 0.0;
        return static_cast<double>(_counts[i]) / toSec(_width);
    }

    std::size_t size() const { return _counts.size(); }

  private:
    Tick _width;
    std::vector<std::uint64_t> _counts;
};

} // namespace bms::sim

#endif // BMS_SIM_STATS_HH
