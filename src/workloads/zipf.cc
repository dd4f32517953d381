#include "workloads/zipf.hh"

#include <cmath>

#include "base/logging.hh"

namespace mclock {
namespace workloads {

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : items_(n), theta_(theta)
{
    MCLOCK_ASSERT(n > 0);
    zetaN_ = zetaStatic(0, n, theta, 0.0);
    zetaComputedTo_ = n;
    computeConstants();
}

double
ZipfianGenerator::zetaStatic(std::uint64_t st, std::uint64_t n,
                             double theta, double initial)
{
    double sum = initial;
    for (std::uint64_t i = st; i < n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    return sum;
}

void
ZipfianGenerator::computeConstants()
{
    zeta2Theta_ = zetaStatic(0, 2, theta_, 0.0);
    rankOneBound_ = 1.0 + std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items_),
                           1.0 - theta_)) /
           (1.0 - zeta2Theta_ / zetaN_);
}

void
ZipfianGenerator::setItemCount(std::uint64_t n)
{
    MCLOCK_ASSERT(n >= zetaComputedTo_);
    if (n == items_)
        return;
    // Incremental zeta extension (YCSB's allowItemCountDecrease=false).
    zetaN_ = zetaStatic(zetaComputedTo_, n, theta_, zetaN_);
    zetaComputedTo_ = n;
    items_ = n;
    computeConstants();
}

std::uint64_t
ZipfianGenerator::next(Rng &rng)
{
    const double u = rng.nextDouble();
    const double uz = u * zetaN_;
    if (uz < 1.0)
        return 0;
    if (uz < rankOneBound_)
        return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(items_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= items_ ? items_ - 1 : rank;
}

ScrambledZipfianGenerator::ScrambledZipfianGenerator(std::uint64_t n,
                                                     double theta)
    : zipf_(n, theta), items_(n)
{
}

std::uint64_t
ScrambledZipfianGenerator::next(Rng &rng)
{
    return fnv1a64(zipf_.next(rng)) % items_;
}

LatestGenerator::LatestGenerator(std::uint64_t n, double theta)
    : zipf_(n, theta), items_(n)
{
}

void
LatestGenerator::setItemCount(std::uint64_t n)
{
    items_ = n;
    zipf_.setItemCount(n);
}

std::uint64_t
LatestGenerator::next(Rng &rng)
{
    // Rank 0 = newest record.
    const std::uint64_t rank = zipf_.next(rng);
    return items_ - 1 - rank;
}

}  // namespace workloads
}  // namespace mclock
