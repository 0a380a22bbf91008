#include "oracle.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

namespace e2e {

namespace {

constexpr size_t kMaxMessages = 8;

bool
sameBits(const potluck::FeatureVector &a, const potluck::FeatureVector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.values().data(), b.values().data(),
                       a.size() * sizeof(float)) == 0;
}

} // namespace

Oracle::Oracle(const std::vector<potluck::FeatureVector> &keys,
               const std::vector<potluck::Value> &truth,
               const std::vector<double> &cost_us, OracleConfig config)
    : keys_(keys), truth_(truth), cost_us_(cost_us), config_(config)
{
}

void
Oracle::violate(const std::string &check, const std::string &message)
{
    ++total_violations_;
    ++by_check_[check];
    if (messages_.size() < kMaxMessages)
        messages_.push_back(check + ": " + message);
}

double
Oracle::dist(uint32_t a, uint32_t b) const
{
    const std::vector<float> &x = keys_[a].values();
    const std::vector<float> &y = keys_[b].values();
    if (x.size() != y.size())
        return std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        sum += d * d;
    }
    return std::sqrt(sum);
}

bool
Oracle::closerThan(uint32_t a, uint32_t b, double limit) const
{
    const std::vector<float> &x = keys_[a].values();
    const std::vector<float> &y = keys_[b].values();
    if (x.size() != y.size())
        return false;
    const double bound = limit * limit;
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        sum += d * d;
        if (sum >= bound)
            return false;
    }
    return true;
}

std::vector<size_t>
Oracle::exactPuts(uint32_t key) const
{
    std::vector<size_t> out;
    auto it = by_hash_.find(keys_[key].hash());
    if (it == by_hash_.end())
        return out;
    for (size_t rec : it->second) {
        if (sameBits(keys_[puts_[rec].key], keys_[key]))
            out.push_back(rec);
    }
    return out;
}

void
Oracle::notePut(uint32_t key, int app, potluck::EntryId id,
                const potluck::Value &value)
{
    ++tally_.puts;
    const size_t rec = puts_.size();
    puts_.push_back({key, app, value});
    by_hash_[keys_[key].hash()].push_back(rec);
    distinct_keys_[key] = true;
    if (id == 0) {
        violate("put", "put of key " + std::to_string(key) +
                           " returned entry id 0");
        return;
    }
    if (!by_id_.emplace(id, rec).second)
        violate("put", "entry id " + std::to_string(id) + " returned twice");
}

void
Oracle::noteAnswer(uint32_t key, int app, bool hit, bool dropped,
                   potluck::EntryId id, const potluck::Value &value)
{
    ++tally_.lookups;
    if (dropped) {
        ++tally_.dropouts;
        if (hit)
            violate("value", "answer is both a hit and a dropout");
        return;
    }
    const std::vector<size_t> exact = exactPuts(key);
    if (!hit) {
        ++tally_.misses;
        if (!exact.empty()) {
            violate("requery", "exact re-query of key " +
                                   std::to_string(key) + " missed");
        }
        return;
    }
    ++tally_.hits;
    ++hits_total_;

    // Which put does this hit return?
    long rec = -1;
    auto known = by_id_.find(id);
    if (known != by_id_.end()) {
        rec = static_cast<long>(known->second);
        if (!potluck::valueEquals(puts_[rec].value, value)) {
            violate("value", "hit on id " + std::to_string(id) +
                                 " returned a value other than the one put "
                                 "under that id");
        }
    }
    if (!exact.empty()) {
        bool matches = false;
        for (size_t r : exact)
            matches = matches || potluck::valueEquals(puts_[r].value, value);
        if (!matches) {
            violate("requery", "exact re-query of key " +
                                   std::to_string(key) +
                                   " returned another value");
        } else if (rec < 0) {
            // A fresh id for a durable key: a cold-tier promotion or a
            // record recovered after a restart. Remember it.
            rec = static_cast<long>(exact.front());
            by_id_.emplace(id, exact.front());
        }
    }
    if (rec < 0) {
        violate("unknown", "hit returned id " + std::to_string(id) +
                               " that no put of this daemon returned");
        return;
    }

    if (config_.check_nearest) {
        // The hit is wrong when some put's key lies closer than `limit`
        // (best * (1 + tol) + tol < got). A put's sum is abandoned as
        // soon as it reaches limit^2, and a hit at distance 0 (an exact
        // re-query) cannot be beaten, so most scans end early.
        const double got = dist(key, puts_[rec].key);
        const double limit = (got - kNearestRelTol) / (1.0 + kNearestRelTol);
        bool beaten = false;
        for (size_t p = 0; limit > 0.0 && p < puts_.size() && !beaten; ++p)
            beaten = closerThan(key, puts_[p].key, limit);
        if (beaten) {
            double best = std::numeric_limits<double>::infinity();
            for (const PutRecord &p : puts_)
                best = std::min(best, dist(key, p.key));
            std::ostringstream msg;
            msg.precision(17);
            msg << "hit for key " << key << " at distance " << got
                << " but the nearest key put is at " << best;
            violate("nearest", msg.str());
        }
    }

    if (puts_[rec].app != app)
        ++cross_app_hits_;
    if (potluck::valueEquals(truth_[key], value))
        saved_us_ += cost_us_[key];
    else
        ++wrong_hits_;
}

void
Oracle::daemonRestarted()
{
    by_id_.clear();
    tally_ = DaemonCounters{};
}

void
Oracle::checkCounters(const DaemonCounters &d)
{
    auto expect = [this](const char *what, uint64_t daemon, uint64_t mine) {
        if (daemon != mine) {
            violate("counters", std::string(what) + ": daemon reports " +
                                    std::to_string(daemon) +
                                    ", the client saw " +
                                    std::to_string(mine));
        }
    };
    expect("lookups", d.lookups, tally_.lookups);
    expect("hits", d.hits, tally_.hits);
    expect("misses", d.misses, tally_.misses);
    expect("dropouts", d.dropouts, tally_.dropouts);
    expect("puts", d.puts, tally_.puts);

    const int64_t ram_expected =
        static_cast<int64_t>(d.puts + (config_.tiered ? d.promotions : 0)) -
        static_cast<int64_t>(d.evictions + d.expirations);
    if (static_cast<int64_t>(d.entries) != ram_expected) {
        violate("conservation",
                "RAM entries " + std::to_string(d.entries) + " != puts " +
                    std::to_string(d.puts) +
                    (config_.tiered
                         ? " + promotions " + std::to_string(d.promotions)
                         : std::string()) +
                    " - evictions " + std::to_string(d.evictions) +
                    " - expirations " + std::to_string(d.expirations));
    }
    if (config_.tiered) {
        if (config_.max_entries && d.entries > config_.max_entries) {
            violate("conservation", "RAM entries " +
                                        std::to_string(d.entries) +
                                        " exceed max_entries " +
                                        std::to_string(config_.max_entries));
        }
        if (d.entries + d.cold_records != distinct_keys_.size()) {
            violate("conservation",
                    "RAM entries " + std::to_string(d.entries) +
                        " + cold records " + std::to_string(d.cold_records) +
                        " != distinct keys put " +
                        std::to_string(distinct_keys_.size()));
        }
    }

    if (tally_.lookups > 0 && config_.dropout_p > 0.0) {
        const double n = static_cast<double>(tally_.lookups);
        const double p = config_.dropout_p;
        const double sd = std::sqrt(n * p * (1.0 - p));
        const double dropped = static_cast<double>(d.dropouts);
        if (std::fabs(dropped - n * p) > kDropoutZ * sd) {
            std::ostringstream msg;
            msg << "dropouts " << d.dropouts << " of " << tally_.lookups
                << " lookups lie outside " << n * p << " +/- "
                << kDropoutZ * sd;
            violate("dropout", msg.str());
        }
    }
}

} // namespace e2e
