/**
 * @file
 * The traced mode (--trace 1): one round against the daemon for its
 * counters, then the workload's own requests, keys and operations
 * replayed into each layer's public functions, each call wrapped in a
 * benchmark span. Prints every per-layer metric and compares the
 * client-observed time of the round's single lookups with the sum of
 * the separately timed codec, bare transport and in-process service
 * costs of the same lookups.
 */
#ifndef E2EBENCH_TRACED_H
#define E2EBENCH_TRACED_H

#include <cstdint>

#include "runner.h"
#include "workload.h"

namespace e2e {

/** Tolerance of the independent-path cross-check: the layer total of
 * the round's single lookups over their observed total must lie within
 * this share of 1, either way. The verdict is printed and the
 * ratio reported; it is a check of the measurement, not of the
 * program's answers, so it leaves `correct` alone. */
inline constexpr double kCrossCheckTolerance = 0.5;

/** Returns the process exit status; prints the result line. */
int runTraced(const Workload &w, const std::string &daemon, uint64_t seed,
              uint64_t t0_ns);

} // namespace e2e

#endif // E2EBENCH_TRACED_H
