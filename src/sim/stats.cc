#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/check.hh"

namespace bms::sim {

int
LatencyHistogram::bucketIndex(Tick value)
{
    if (value < kSub)
        return static_cast<int>(value); // exact for tiny values
    int octave = 63 - std::countl_zero(value);
    int shift = octave - kSubBits;
    int sub = static_cast<int>((value >> shift) & (kSub - 1));
    int idx = ((octave - kSubBits + 1) << kSubBits) + sub;
    BMS_ASSERT(idx >= 0 && idx < kOctaves * kSub,
               "histogram bucket out of range: idx=", idx);
    return idx;
}

Tick
LatencyHistogram::bucketLow(int index)
{
    if (index < kSub)
        return static_cast<Tick>(index);
    int block = index >> kSubBits;
    int sub = index & (kSub - 1);
    int octave = block + kSubBits - 1;
    int shift = octave - kSubBits;
    return (Tick{1} << octave) + (static_cast<Tick>(sub) << shift);
}

Tick
LatencyHistogram::bucketHigh(int index)
{
    if (index < kSub)
        return static_cast<Tick>(index);
    int block = index >> kSubBits;
    int octave = block + kSubBits - 1;
    int shift = octave - kSubBits;
    return bucketLow(index) + (Tick{1} << shift) - 1;
}

void
LatencyHistogram::add(Tick value)
{
    ++_buckets[static_cast<std::size_t>(bucketIndex(value))];
    ++_count;
    _sum += static_cast<double>(value);
    _min = std::min(_min, value);
    _max = std::max(_max, value);
}

double
LatencyHistogram::mean() const
{
    return _count ? _sum / static_cast<double>(_count) : 0.0;
}

Tick
LatencyHistogram::quantile(double q) const
{
    if (_count == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-th sample (1-based, ceil), matching HDR semantics.
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(_count)));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        seen += _buckets[i];
        if (seen >= rank) {
            // Interpolate position within the bucket.
            std::uint64_t into = _buckets[i] - (seen - rank);
            double frac = static_cast<double>(into) /
                          static_cast<double>(_buckets[i]);
            Tick lo = bucketLow(static_cast<int>(i));
            Tick hi = bucketHigh(static_cast<int>(i));
            Tick v = lo + static_cast<Tick>(
                              frac * static_cast<double>(hi - lo));
            return std::clamp(v, _min, _max);
        }
    }
    return _max;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < _buckets.size(); ++i)
        _buckets[i] += other._buckets[i];
    _count += other._count;
    _sum += other._sum;
    _min = std::min(_min, other._min);
    _max = std::max(_max, other._max);
}

} // namespace bms::sim
