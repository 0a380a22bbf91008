/**
 * @file
 * The benchmark's workloads: seeded inputs (images, the keys extracted
 * from them, each key's true result and modelled compute cost) and one
 * round of operations. Every round of a run replays the same steps
 * against a freshly started daemon, so rounds are identical in work and
 * end with identical cache contents.
 */
#ifndef E2EBENCH_WORKLOAD_H
#define E2EBENCH_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/value.h"
#include "features/downsample.h"
#include "features/feature_vector.h"
#include "img/image.h"

namespace e2e {

enum class StepKind : uint8_t
{
    Lookup, ///< PotluckClient::lookup of keys[0]
    Mget,   ///< PotluckClient::lookupBatch of every key
    Put,    ///< PotluckClient::put of keys[0] with its true result
};

/** How an input was made (for the README's make-up table). */
enum class Origin : uint8_t
{
    Novel,
    NearDuplicate,
    ExactRepeat,
    Crop,
    Prefill,
    Unseen,
};

/** One client operation of a round. */
struct Step
{
    StepKind kind = StepKind::Lookup;
    uint8_t app = 0;
    /** recog_uds: after the lookup, put the true result of every key
     * that missed or was dropped (the application computed it); an
     * mget's keys go back in one putBatch. */
    bool put_on_miss = false;
    std::vector<uint32_t> keys; ///< ids into Workload::keys
    Origin origin = Origin::Prefill; ///< how the input was made
};

struct Workload
{
    std::string name;
    std::string function;
    std::string key_type;
    potluck::IndexKind index_kind = potluck::IndexKind::KdTree;
    potluck::Metric metric = potluck::Metric::L2;
    bool use_shm = false;
    std::vector<std::string> apps;
    /** potluckd flags beyond --socket ("{store}" is replaced by the
     * round's store directory). */
    std::vector<std::string> daemon_args;
    /** The daemon's --max-entries (the service default when 0). */
    size_t max_entries = 0;
    /** Prefill, SIGKILL the daemon and restart it warm on its store
     * directory before the timed phase (cold_tier). */
    bool kill_and_restart = false;
    /** Nothing is ever evicted, so every hit must be a true nearest
     * neighbour of the keys put so far (recog_uds on KdTree). */
    bool check_nearest = false;

    /** Key extraction (features layer). */
    int extract_w = 16;
    int extract_h = 16;

    /** Every distinct key, with the image it was extracted from, its
     * true result and its modelled compute cost. */
    std::vector<potluck::FeatureVector> keys;
    std::vector<potluck::Image> images;
    std::vector<potluck::Value> truth;
    std::vector<double> cost_us;
    std::vector<Origin> origin;

    /** Keys put in each round's set-up, before the timed phase. */
    std::vector<uint32_t> prefill;
    /** One round of the timed phase. */
    std::vector<Step> steps;

    /** One line on the round's make-up: steps by origin, keys, dims. */
    std::string describe() const;
};

/** Build a workload from its seed; throws std::invalid_argument for an
 * unknown name. The same (name, seed) always gives the same inputs. */
Workload makeWorkload(const std::string &name, uint64_t seed);

} // namespace e2e

#endif // E2EBENCH_WORKLOAD_H
