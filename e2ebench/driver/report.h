/**
 * @file
 * The benchmark's result line: one JSON object with the keys
 * correct, attempted, failed and metrics, printed as the last line of
 * stdout.
 */
#ifndef E2EBENCH_REPORT_H
#define E2EBENCH_REPORT_H

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** (name, value, unit), in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    void
    print(std::ostream &out) const
    {
        out << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
        for (size_t i = 0; i < metrics.size(); ++i) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", metrics[i].second.first);
            out << (i ? ", " : "") << "\"" << metrics[i].first
                << "\": {\"value\": " << num << ", \"unit\": \""
                << metrics[i].second.second << "\"}";
        }
        out << "}}" << std::endl;
    }
};

} // namespace e2e

#endif // E2EBENCH_REPORT_H
