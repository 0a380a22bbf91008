#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "img/transform.h"
#include "util/rng.h"
#include "workload/dataset.h"
#include "workload/device.h"
#include "workload/trace.h"

namespace e2e {

using potluck::FeatureVector;
using potluck::Image;
using potluck::Rng;

namespace {

/// @name recog_uds: three apps share object recognition (256-d keys).
/// @{
/** One recognition's modelled cost: the repository's measured
 * inference time per frame on the host (EXPERIMENTS.md, Fig. 10(a)),
 * scaled to the phone the paper runs on (workload/device.h). */
constexpr double kRecogHostMs = 9.4;
/** Scenes recognised before the round, put by the first app in each
 * round's set-up: the timed phase runs on a tree of 1000 keys or more
 * from its first lookup, so a lookup's cost does not depend on how far
 * into the round it falls. The tree stays near the size of a core's L2
 * cache (1000 to ~1400 keys of 1 KiB), so less of a lookup's cost
 * depends on how busy the host's shared cache is. */
constexpr size_t kRecogPrefill = 1000;
/** The timed input mix. The shares are this benchmark's choice, not the
 * paper's. Single-lookup latencies fall into three modes: an exact
 * repeat or a dropout (the KdTree stops at distance 0, or is not asked),
 * a near-duplicate on a fresh tree (a search of most of the tree), and
 * any lookup right after a put (a full rebuild first). Near-duplicates
 * are most inputs, so the lookup median lies well inside the middle
 * mode, whose cost is the index's own work, and not on the edge between
 * two modes, where a small change in their shares or in the host's
 * wake-up latency would move it far. */
constexpr size_t kRecogInputs = 1200;
constexpr double kRecogNovel = 0.075;
constexpr double kRecogNearDup = 0.70;
constexpr double kRecogExact = 0.20; // the remaining 2.5% are crop mgets
/** Seeds the order of input kinds, the same for every --seed, so every
 * seed puts its rebuilds at the same points of a round. */
constexpr uint64_t kRecogMixSeed = 0x5eed;
constexpr int kRecogCrops = 16; // a 4x4 grid of 24x24 crops
/// @}

/// @name hot_shm: a prefilled exact-match cache read over the shm ring.
/// @{
constexpr size_t kHotPrefill = 4096;
constexpr size_t kHotUnseen = 512;
constexpr size_t kHotPasses = 16;
constexpr size_t kHotMgets = 48; // per pass
constexpr size_t kHotMgetSize = 16;
constexpr size_t kHotSingles = 384;
constexpr size_t kHotMisses = 96;
constexpr size_t kHotPuts = 64;
/// @}

/// @name cold_tier: a working set ten times the RAM tier, on Lsh.
/// @{
constexpr size_t kColdMaxEntries = 500;
constexpr size_t kColdWorkingSet = 10 * kColdMaxEntries;
constexpr size_t kColdLookups = 8000;
constexpr size_t kColdPutEvery = 7; // one new-key put per 7 lookups
constexpr size_t kColdMgetEvery = 25; // one 4-key mget in place of a lookup
constexpr size_t kColdMgetSize = 4;
/// @}

/**
 * The paper's cache-replacement traffic (Section 5.3, workload/trace.h):
 * one synthetic workload per key, with compute costs log-spaced over
 * [1 ms, 10 s], and popularity that follows the exponential law of the
 * multi-app mix. Draws come from `trace` in order.
 */
struct PaperTraffic
{
    std::vector<potluck::SyntheticWorkload> workloads;
    std::vector<int> trace;
    size_t next = 0;

    PaperTraffic(size_t keys, size_t draws, Rng &rng)
        : workloads(potluck::makeWorkloads(rng, static_cast<int>(keys)))
    {
        trace = potluck::makeTrace(rng, workloads,
                                   potluck::PopularityModel::Exponential,
                                   static_cast<int>(draws));
    }

    /** A key's modelled cost, in microseconds. */
    double costUs(size_t i) const { return workloads[i].compute_ms * 1e3; }

    /** The next key of the trace, as an index into the keys. */
    size_t draw() { return static_cast<size_t>(trace.at(next++)); }
};

/** Appends keys, keeping exact keys unique where a workload needs it. */
class KeyTable
{
  public:
    KeyTable(Workload &w, bool unique) : w_(w), unique_(unique)
    {
        extractor_ = std::make_unique<potluck::DownsampleExtractor>(
            w.extract_w, w.extract_h, true);
    }

    /** Extract and add; returns the id, or -1 on a duplicate key when
     * keys must be unique. */
    long
    add(Image image, potluck::Value truth, double cost_us, Origin origin)
    {
        FeatureVector key = extractor_->extract(image);
        if (unique_ && !seen_.insert(key.hash()).second)
            return -1;
        w_.keys.push_back(std::move(key));
        w_.images.push_back(std::move(image));
        w_.truth.push_back(std::move(truth));
        w_.cost_us.push_back(cost_us);
        w_.origin.push_back(origin);
        return static_cast<long>(w_.keys.size() - 1);
    }

  private:
    Workload &w_;
    bool unique_;
    std::unique_ptr<potluck::DownsampleExtractor> extractor_;
    std::unordered_set<uint64_t> seen_;
};

potluck::Value
labelValue(int label)
{
    return potluck::encodeString("label:" + std::to_string(label));
}

/** A 64-byte result unique to one key (hot_shm, cold_tier). */
potluck::Value
uniqueValue(const std::string &function, size_t id, Rng &rng)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s:%zu:%016llx", function.c_str(), id,
                  static_cast<unsigned long long>(rng.engine()()));
    std::string s(buf);
    s.resize(64, '.');
    return potluck::encodeString(s);
}

/** A labelled CIFAR-like image drawn fresh. */
Image
novelImage(Rng &rng, int &label)
{
    label = static_cast<int>(rng.uniformInt(0, 9));
    return potluck::drawCifarLikeImage(rng, label, {});
}

/** The same scene shot again: small lighting change and sensor noise. */
Image
nearDuplicate(const Image &src, Rng &rng)
{
    Image out = potluck::adjustBrightnessContrast(
        src, rng.uniformReal(0.95, 1.05), rng.uniformReal(-6.0, 6.0));
    for (uint8_t &px : out.data()) {
        int v = px + static_cast<int>(rng.uniformInt(-3, 3));
        px = static_cast<uint8_t>(std::clamp(v, 0, 255));
    }
    return out;
}

/** Fresh images with unique keys and unique values; the i-th costs
 * `traffic.costUs(i)`. */
std::vector<uint32_t>
addUniqueImages(KeyTable &table, Workload &w, size_t n, Origin origin,
                const PaperTraffic &traffic, Rng &rng)
{
    std::vector<uint32_t> ids;
    ids.reserve(n);
    while (ids.size() < n) {
        int label = 0;
        Image img = novelImage(rng, label);
        long id = table.add(std::move(img), nullptr,
                            traffic.costUs(ids.size()), origin);
        if (id < 0)
            continue;
        w.truth[id] = uniqueValue(w.function, id, rng);
        ids.push_back(static_cast<uint32_t>(id));
    }
    return ids;
}

Workload
makeRecog(uint64_t seed)
{
    Workload w;
    w.name = "recog_uds";
    w.function = "object_recognition";
    w.key_type = "downsamp";
    w.index_kind = potluck::IndexKind::KdTree;
    w.apps = {"camera", "gallery", "assistant"};
    w.check_nearest = true;
    w.extract_w = 16;
    w.extract_h = 16;

    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    KeyTable table(w, /*unique=*/false);
    std::vector<uint32_t> bases;  // novel full images
    std::vector<uint32_t> inputs; // keys of earlier single-key inputs
    std::vector<int> labels;      // label per key id
    auto addKey = [&](Image img, int label, double cost, Origin origin) {
        long id = table.add(std::move(img), labelValue(label), cost, origin);
        labels.push_back(label);
        return static_cast<uint32_t>(id);
    };
    const double cost =
        potluck::scaleToDevice(kRecogHostMs, potluck::Device::Mobile) * 1e3;
    for (size_t i = 0; i < kRecogPrefill; ++i) {
        int label = 0;
        Image img = novelImage(rng, label);
        uint32_t id = addKey(std::move(img), label, cost, Origin::Prefill);
        w.prefill.push_back(id);
        bases.push_back(id);
        inputs.push_back(id);
    }

    // Evenly spaced kind selectors, shuffled: every round has exactly
    // the configured shares.
    std::vector<double> mix(kRecogInputs);
    for (size_t i = 0; i < kRecogInputs; ++i)
        mix[i] = (static_cast<double>(i) + 0.5) / kRecogInputs;
    Rng mix_rng(kRecogMixSeed);
    std::shuffle(mix.begin(), mix.end(), mix_rng.engine());
    for (size_t i = 0; i < kRecogInputs; ++i) {
        Step step;
        step.app = static_cast<uint8_t>(i % w.apps.size());
        step.put_on_miss = true;
        const double u = mix[i];
        if (u < kRecogNovel) {
            int label = 0;
            Image img = novelImage(rng, label);
            uint32_t id = addKey(std::move(img), label, cost, Origin::Novel);
            bases.push_back(id);
            inputs.push_back(id);
            step.origin = Origin::Novel;
            step.kind = StepKind::Lookup;
            step.keys = {id};
        } else if (u < kRecogNovel + kRecogNearDup) {
            uint32_t src = bases[rng.uniformInt(0, bases.size() - 1)];
            Image img = nearDuplicate(w.images[src], rng);
            uint32_t id =
                addKey(std::move(img), labels[src], cost, Origin::NearDuplicate);
            inputs.push_back(id);
            step.origin = Origin::NearDuplicate;
            step.kind = StepKind::Lookup;
            step.keys = {id};
        } else if (u < kRecogNovel + kRecogNearDup + kRecogExact) {
            uint32_t id = inputs[rng.uniformInt(0, inputs.size() - 1)];
            step.origin = Origin::ExactRepeat;
            step.kind = StepKind::Lookup;
            step.keys = {id};
        } else {
            // Multi-crop recognition: sixteen overlapping crops of an
            // earlier scene, looked up in one mget.
            const uint32_t src = bases[rng.uniformInt(0, bases.size() - 1)];
            const int label = labels[src];
            step.origin = Origin::Crop;
            step.kind = StepKind::Mget;
            const Image base = w.images[src]; // addKey grows w.images
            const int cw = base.width() - 8, ch = base.height() - 8;
            for (int c = 0; c < kRecogCrops; ++c) {
                Image crop = potluck::crop(base, (c % 4) * 2, (c / 4) * 2,
                                           cw, ch);
                step.keys.push_back(
                    addKey(std::move(crop), label, cost, Origin::Crop));
            }
        }
        w.steps.push_back(std::move(step));
    }
    return w;
}

Workload
makeHot(uint64_t seed)
{
    Workload w;
    w.name = "hot_shm";
    w.function = "scene_text";
    w.key_type = "downsamp8";
    w.index_kind = potluck::IndexKind::Hash;
    w.use_shm = true;
    w.apps = {"reader", "translator"};
    w.extract_w = 8;
    w.extract_h = 8;

    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
    KeyTable table(w, /*unique=*/true);
    PaperTraffic hot(kHotPrefill,
                     kHotPasses * (kHotMgets * kHotMgetSize + kHotSingles), rng);
    const PaperTraffic other(kHotUnseen + kHotPasses * kHotPuts, 0, rng);
    w.prefill =
        addUniqueImages(table, w, kHotPrefill, Origin::Prefill, hot, rng);
    std::vector<uint32_t> unseen =
        addUniqueImages(table, w, kHotUnseen, Origin::Unseen, other, rng);
    std::vector<uint32_t> fresh = addUniqueImages(
        table, w, kHotPasses * kHotPuts, Origin::Novel, other, rng);

    size_t next_fresh = 0;
    uint8_t app = 0;
    for (size_t pass = 0; pass < kHotPasses; ++pass) {
        std::vector<Step> steps;
        for (size_t i = 0; i < kHotMgets; ++i) {
            Step s{StepKind::Mget, 0, false, {}, Origin::ExactRepeat};
            for (size_t k = 0; k < kHotMgetSize; ++k)
                s.keys.push_back(w.prefill[hot.draw()]);
            steps.push_back(std::move(s));
        }
        for (size_t i = 0; i < kHotSingles; ++i)
            steps.push_back({StepKind::Lookup, 0, false,
                             {w.prefill[hot.draw()]}, Origin::ExactRepeat});
        for (size_t i = 0; i < kHotMisses; ++i)
            steps.push_back({StepKind::Lookup, 0, false,
                             {unseen[rng.uniformInt(0, unseen.size() - 1)]},
                             Origin::Unseen});
        for (size_t i = 0; i < kHotPuts; ++i)
            steps.push_back({StepKind::Put, 0, false, {fresh[next_fresh++]},
                             Origin::Novel});
        rng.shuffle(steps);
        for (Step &s : steps) {
            s.app = app;
            app = static_cast<uint8_t>((app + 1) % w.apps.size());
            w.steps.push_back(std::move(s));
        }
    }
    return w;
}

Workload
makeCold(uint64_t seed)
{
    Workload w;
    w.name = "cold_tier";
    w.function = "landmark_match";
    w.key_type = "downsamp8";
    w.index_kind = potluck::IndexKind::Lsh;
    w.apps = {"maps", "camera"};
    w.max_entries = kColdMaxEntries;
    w.daemon_args = {"--store-dir", "{store}", "--max-entries",
                     std::to_string(kColdMaxEntries)};
    w.kill_and_restart = true;
    w.extract_w = 8;
    w.extract_h = 8;

    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
    KeyTable table(w, /*unique=*/true);
    // Enough draws for every lookup, with room for the mgets' re-draws
    // of a key already in the batch.
    PaperTraffic hot(kColdWorkingSet, 2 * kColdLookups, rng);
    const PaperTraffic other(kColdLookups / kColdPutEvery, 0, rng);
    w.prefill = addUniqueImages(table, w, kColdWorkingSet, Origin::Prefill,
                                hot, rng);
    std::vector<uint32_t> fresh =
        addUniqueImages(table, w, kColdLookups / kColdPutEvery, Origin::Novel,
                        other, rng);

    size_t next_fresh = 0;
    for (size_t i = 0; i < kColdLookups; ++i) {
        uint8_t app = static_cast<uint8_t>(w.steps.size() % w.apps.size());
        if ((i + 1) % kColdMgetEvery == 0) {
            // Distinct keys: a key twice in one batch misses its second
            // time when the first promoted it from the cold tier (see
            // CHANGES.md), a fault this workload leaves out.
            Step s{StepKind::Mget, app, false, {}, Origin::ExactRepeat};
            while (s.keys.size() < kColdMgetSize) {
                const uint32_t key = w.prefill[hot.draw()];
                if (std::find(s.keys.begin(), s.keys.end(), key) ==
                    s.keys.end())
                    s.keys.push_back(key);
            }
            w.steps.push_back(std::move(s));
            continue;
        }
        w.steps.push_back({StepKind::Lookup, app, false,
                           {w.prefill[hot.draw()]}, Origin::ExactRepeat});
        if ((i + 1) % kColdPutEvery == 0) {
            app = static_cast<uint8_t>(w.steps.size() % w.apps.size());
            w.steps.push_back({StepKind::Put, app, false,
                               {fresh[next_fresh++]}, Origin::Novel});
        }
    }
    return w;
}

} // namespace

std::string
Workload::describe() const
{
    const char *names[] = {"novel", "near-duplicate", "exact repeat",
                           "multi-crop mget", "prefill", "unseen"};
    size_t by_origin[6] = {};
    size_t lookups = 0, mgets = 0, puts = 0;
    for (const Step &s : steps) {
        ++by_origin[static_cast<int>(s.origin)];
        if (s.kind == StepKind::Mget)
            ++mgets;
        else if (s.kind == StepKind::Put)
            ++puts;
        else
            ++lookups;
    }
    std::string out = name + ": " + std::to_string(steps.size()) +
                      " steps per round (" + std::to_string(lookups) +
                      " lookups, " + std::to_string(mgets) + " mgets, " +
                      std::to_string(puts) + " puts);";
    for (int i = 0; i < 6; ++i) {
        if (by_origin[i])
            out += std::string(" ") + names[i] + " " +
                   std::to_string(by_origin[i]) + ",";
    }
    out += " prefill " + std::to_string(prefill.size()) + " keys, " +
           std::to_string(keys.size()) + " distinct keys of " +
           std::to_string(keys.empty() ? 0 : keys[0].size()) + " dims";
    return out;
}

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "recog_uds")
        return makeRecog(seed);
    if (name == "hot_shm")
        return makeHot(seed);
    if (name == "cold_tier")
        return makeCold(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace e2e
