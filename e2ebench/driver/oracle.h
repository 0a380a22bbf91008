/**
 * @file
 * The benchmark's correctness oracle. It keeps its own record of every
 * put (key, value, app, returned id), computes distances itself in
 * double precision, and checks each answer the daemon gave against
 * that record:
 *
 *  - value:    a hit that returns a known id returns the value put
 *              under that id;
 *  - requery:  an exact re-query of a key put earlier hits, with that
 *              key's value, unless the lookup was dropped (this covers
 *              keys demoted to the cold tier and keys recovered after
 *              a SIGKILL);
 *  - nearest:  (when enabled: nothing is ever evicted) a hit is a true
 *              nearest neighbour: its distance equals the brute-force
 *              minimum over every key put before the query, within a
 *              relative tolerance of kNearestRelTol;
 *  - unknown:  a hit returns an id the oracle cannot place (not put in
 *              this daemon's lifetime and not an exact re-query);
 *  - counters: the daemon's lookup, hit, miss, dropout and put counters
 *              equal the oracle's own tallies;
 *  - conservation: RAM entries = puts - evictions (+ promotions with a
 *              cold tier); with a cold tier, RAM entries <= max_entries
 *              and RAM entries + cold records = distinct keys put;
 *  - dropout:  dropouts / lookups lies inside a kDropoutZ-sigma binomial
 *              interval around the configured probability.
 *
 * The oracle is sequential: feed it puts and answers in the order the
 * client saw them. It never throws on a violation; it counts it, keeps
 * the first few messages and reports ok() == false.
 */
#ifndef E2EBENCH_ORACLE_H
#define E2EBENCH_ORACLE_H

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cache_entry.h"
#include "core/value.h"
#include "features/feature_vector.h"

namespace e2e {

/** Relative tolerance of the nearest-neighbour check. */
inline constexpr double kNearestRelTol = 1e-9;
/** Width of the dropout-rate interval in standard deviations
 * (two-sided false-alarm probability below 1e-6). */
inline constexpr double kDropoutZ = 5.0;

struct OracleConfig
{
    double dropout_p = 0.1;
    /** Check that every hit is a true nearest neighbour. */
    bool check_nearest = false;
    /** The daemon runs a cold tier (--store-dir). */
    bool tiered = false;
    /** The daemon's --max-entries (tiered conservation check). */
    uint64_t max_entries = 0;
};

/** The daemon-side numbers the counter and conservation checks read
 * (ServiceStats plus occupancy, from PotluckClient::fetchMetrics). */
struct DaemonCounters
{
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t dropouts = 0;
    uint64_t puts = 0;
    uint64_t evictions = 0;
    uint64_t expirations = 0;
    uint64_t entries = 0;      ///< RAM entries
    uint64_t promotions = 0; ///< store.promotions (tiered)
    /** Cold records by the store's own counters (tiered):
     * store.recovered_records + store.demotions - store.promotions. */
    uint64_t cold_records = 0;
};

class Oracle
{
  public:
    /**
     * @param keys   every key of the workload, by key id
     * @param truth  each key's true result (wrong-hit accounting)
     * @param cost_us each key's modelled compute cost
     */
    Oracle(const std::vector<potluck::FeatureVector> &keys,
           const std::vector<potluck::Value> &truth,
           const std::vector<double> &cost_us, OracleConfig config);

    /** A put of key `key` by `app` was acknowledged with `id`. */
    void notePut(uint32_t key, int app, potluck::EntryId id,
                 const potluck::Value &value);

    /** The daemon answered a lookup of `key` by `app`. */
    void noteAnswer(uint32_t key, int app, bool hit, bool dropped,
                    potluck::EntryId id, const potluck::Value &value);

    /**
     * The daemon was restarted on its store: entry ids and counters
     * start afresh, while every key put before stays durable.
     */
    void daemonRestarted();

    /** Compare the daemon's counters with this daemon's tallies. */
    void checkCounters(const DaemonCounters &daemon);

    bool ok() const { return total_violations_ == 0; }
    uint64_t violations() const { return total_violations_; }
    /** Violation counts by check name. */
    const std::map<std::string, uint64_t> &byCheck() const
    {
        return by_check_;
    }
    /** The first few violation messages. */
    const std::vector<std::string> &messages() const { return messages_; }

    /// @name Tallies over the oracle's whole life.
    /// @{
    uint64_t hits() const { return hits_total_; }
    uint64_t crossAppHits() const { return cross_app_hits_; }
    uint64_t wrongHits() const { return wrong_hits_; }
    /** Modelled compute of inputs answered by a hit whose value is the
     * input's true result (us). */
    double savedComputeUs() const { return saved_us_; }
    /// @}

  private:
    struct PutRecord
    {
        uint32_t key;
        int app;
        potluck::Value value;
    };

    void violate(const std::string &check, const std::string &message);
    /** Put records whose key equals `key` bit for bit. */
    std::vector<size_t> exactPuts(uint32_t key) const;
    double dist(uint32_t a, uint32_t b) const;
    /** dist(a, b) < limit, giving up once the partial sum reaches
     * limit^2. */
    bool closerThan(uint32_t a, uint32_t b, double limit) const;

    const std::vector<potluck::FeatureVector> &keys_;
    const std::vector<potluck::Value> &truth_;
    const std::vector<double> &cost_us_;
    OracleConfig config_;

    std::vector<PutRecord> puts_;
    /** Key content hash -> put records (exact re-query detection). */
    std::unordered_map<uint64_t, std::vector<size_t>> by_hash_;
    /** Entry id -> put record, for this daemon's lifetime. */
    std::unordered_map<potluck::EntryId, size_t> by_id_;
    /** Keys whose put moved them into the cache, distinct. */
    std::unordered_map<uint32_t, bool> distinct_keys_;

    /// Tallies since the last daemon (re)start.
    DaemonCounters tally_;

    uint64_t hits_total_ = 0;
    uint64_t cross_app_hits_ = 0;
    uint64_t wrong_hits_ = 0;
    double saved_us_ = 0.0;

    uint64_t total_violations_ = 0;
    std::map<std::string, uint64_t> by_check_;
    std::vector<std::string> messages_;
};

} // namespace e2e

#endif // E2EBENCH_ORACLE_H
