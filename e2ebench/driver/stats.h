/**
 * @file
 * Small numeric helpers shared by the load driver, the traced mode and
 * the oracle tests: order statistics and a monotonic clock.
 */
#ifndef E2EBENCH_STATS_H
#define E2EBENCH_STATS_H

#include <chrono>
#include <cstdint>
#include <vector>

namespace e2e {

/** Monotonic nanoseconds (steady_clock). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * The q-th percentile (0..100) of `values` by linear interpolation
 * between closest ranks; 0 for an empty sample. Takes a copy: callers
 * keep their sample in arrival order.
 */
double percentile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

} // namespace e2e

#endif // E2EBENCH_STATS_H
