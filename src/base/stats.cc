#include "base/stats.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mclock {

void
Summary::add(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
}

void
Summary::merge(const Summary &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const double n = static_cast<double>(count_);
    const double m = static_cast<double>(other.count_);
    mean_ += delta * m / (n + m);
    m2_ += other.m2_ + delta * delta * n * m / (n + m);
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Summary::reset()
{
    *this = Summary{};
}

double
Summary::variance() const
{
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    MCLOCK_ASSERT(hi > lo && buckets > 0);
}

void
Histogram::add(double v)
{
    ++count_;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / width_);
        if (idx >= counts_.size())
            idx = counts_.size() - 1;
        ++counts_[idx];
    }
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = count_ = 0;
}

double
Histogram::bucketLow(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_));
    std::uint64_t seen = underflow_;
    if (seen > target)
        return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (seen + counts_[i] > target) {
            const double frac = counts_[i]
                ? static_cast<double>(target - seen) /
                  static_cast<double>(counts_[i])
                : 0.0;
            return bucketLow(i) + frac * width_;
        }
        seen += counts_[i];
    }
    return hi_;
}

}  // namespace mclock
