/**
 * @file
 * One round of a workload against a real potluckd: start a fresh
 * daemon, connect one PotluckClient per app, register, prefill (and on
 * cold_tier SIGKILL and restart the daemon warm), then run the round's
 * steps from one thread, closed loop, one request in flight, app
 * connections served round-robin. Every answer goes to the oracle
 * after the timed phase; the daemon is killed and reaped before
 * runRound() returns or throws.
 */
#ifndef E2EBENCH_RUNNER_H
#define E2EBENCH_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/value.h"
#include "obs/registry.h"
#include "oracle.h"
#include "workload.h"

namespace e2e {

/** One client-visible answer or acknowledgement, in client order. */
struct Event
{
    enum Kind : uint8_t
    {
        Put,
        Answer,
        Restart, ///< the daemon was SIGKILL'd and restarted warm
    };
    Kind kind = Answer;
    uint8_t app = 0;
    bool hit = false;
    bool dropped = false;
    bool batch = false;   ///< answer from a lookupBatch, put from a putBatch
    bool setup = false;   ///< prefill put, before the timed phase
    uint32_t key = 0;
    potluck::EntryId id = 0;
    potluck::Value value; ///< value put, or value returned
};

struct RoundResult
{
    /// Client-observed latencies of the timed phase, in microseconds.
    std::vector<double> lookup_us;
    std::vector<double> mget_item_us;
    std::vector<double> put_us;
    /// Mget batch sizes, in order (codec replay).
    std::vector<size_t> mget_sizes;

    uint64_t key_ops = 0; ///< lookups + mget items + puts attempted
    uint64_t failed = 0;  ///< transport errors / degraded answers
    double timed_s = 0.0; ///< wall time of the timed phase
    double setup_s = 0.0; ///< daemon launch to first timed op

    /// The daemon just before it was killed.
    DaemonCounters daemon;
    potluck::ServiceStats stats;
    potluck::obs::RegistrySnapshot snapshot;
    long vm_hwm_kb = 0;
    long rss_ready_kb = 0; ///< VmRSS once the (last) daemon accepted
    long rss_end_kb = 0;
    double restart_s = 0.0;  ///< cold_tier: SIGKILL'd daemon back up
    uint64_t recovered = 0;  ///< cold_tier: records recovered
    uint64_t store_disk_bytes = 0;
    uint64_t user_bytes = 0; ///< key + value bytes put

    /// Oracle verdict and tallies.
    bool correct = true;
    std::vector<std::string> violations;
    uint64_t hits = 0;
    uint64_t cross_app_hits = 0;
    uint64_t wrong_hits = 0;
    double saved_us = 0.0;

    std::vector<Event> log; ///< every put and answer, setup included
};

/** Rounds run, and are checked, for this long before measuring: a
 * virtual CPU that was idle runs slower for its first seconds. */
inline constexpr double kWarmupSeconds = 3.0;

/** Disk blocks in use under a directory tree, in bytes. */
uint64_t diskBytes(const std::string &dir);

/**
 * Empty when the daemon granted the shm ring to each of `connections`
 * clients that asked for one and refused none; otherwise what went
 * wrong. A refused upgrade falls back to UDS silently, so a shm
 * workload would measure the wrong transport without this check.
 */
std::string shmShortfall(const potluck::obs::RegistrySnapshot &snapshot,
                         uint64_t connections);

/**
 * Run one round against the potluckd at `daemon`. `t0_ns` is when the set-up this round belongs to
 * began (process start for the first round), so setup_s spans it.
 * Throws std::runtime_error when the daemon cannot be started or the
 * set-up itself fails; the daemon is reaped either way.
 */
RoundResult runRound(const Workload &w, const std::string &daemon, int round,
                     uint64_t t0_ns);

} // namespace e2e

#endif // E2EBENCH_RUNNER_H
