#pragma once

// Shared pieces of the rinkit benchmark: seeded input streams, the
// percentile rule, the benchmark's own span log, the metric sheet every
// workload fills, and process resource readings.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/support/types.hpp"

namespace rinbench {

// Inside rinbench these name rinkit's types, never <strings.h>'s index().
using rinkit::count;
using rinkit::index;
using rinkit::node;

// -- time & process --------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Process CPU time (all threads, user + system) in milliseconds.
double processCpuMs();

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// CPUs this process may run on (affinity mask).
int visibleCpus();

// -- seeded inputs ---------------------------------------------------------

/// SplitMix64: the benchmark's only source of randomness, so the same
/// --seed yields the same inputs on any standard library.
class SeededStream {
public:
    explicit SeededStream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1).
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /// Uniform integer in [0, n).
    std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
    /// Exponential with the given mean.
    double exponential(double mean) { return -mean * std::log1p(-uniform()); }

private:
    std::uint64_t state_;
};

/// Independent sub-seed for one input stream of a run.
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

// -- statistics ------------------------------------------------------------

/// Linear-interpolation percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty set.
double percentile(std::vector<double> samples, double p);

/// The highest of the percentiles {50, 90, 99, 99.9} that has at least ten
/// samples beyond it, or 0 when even the median has fewer (n < 20).
double tailPercentileFor(std::size_t n);

double mean(const std::vector<double>& samples);
double median(std::vector<double> samples);

// -- the benchmark's own spans ----------------------------------------------

/// In-memory span log: name, start, end, parent and request id, recorded
/// from the benchmark's own files around calls into each layer, written
/// out as Chrome trace-event JSON when the run ends.
class SpanLog {
public:
    struct Span {
        const char* name = "";
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t request = 0;
        double startUs = 0.0;
        double endUs = 0.0;
        double ms() const { return (endUs - startUs) / 1000.0; }
    };

    SpanLog() : t0_(Clock::now()) {}

    std::uint64_t begin(const char* name, std::uint64_t parent, std::uint64_t request);
    /// Closes span @p id and returns its duration in ms.
    double end(std::uint64_t id);

    const std::vector<Span>& spans() const { return spans_; }

    /// Writes the log as Chrome trace-event JSON; false on I/O failure.
    bool writeChromeTrace(const std::string& path) const;

private:
    double nowUs() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
    }
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

/// Times @p fn; with a log, records it as a span named @p name.
template <typename F>
double timedCall(SpanLog* log, const char* name, std::uint64_t parent,
                 std::uint64_t request, F&& fn) {
    if (log) {
        const std::uint64_t id = log->begin(name, parent, request);
        fn();
        return log->end(id);
    }
    const auto t0 = Clock::now();
    fn();
    return msSince(t0);
}

// -- results ---------------------------------------------------------------

/// Named metrics with units, in insertion order.
class MetricSheet {
public:
    void set(const std::string& name, double value, const std::string& unit);
    bool has(const std::string& name) const { return index_.count(name) != 0; }
    const std::string& unit(const std::string& name) const;
    /// {"name": {"value": v, "unit": u}, ...} for @p names, which must be set.
    std::string json(const std::vector<std::string>& names) const;
    /// One "name = value unit" line per metric.
    std::string table() const;

private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
    std::map<std::string, std::size_t> index_;
};

/// Shortest round-trip decimal form of @p v (non-finite values become 0).
std::string number(double v);
std::string jsonString(const std::string& s);

/// Counts by label, reported as shares of their total: "a 0.5, b 0.25, ...".
class ShareCounter {
public:
    void add(const std::string& label) { ++counts_[label], ++total_; }
    std::uint64_t total() const { return total_; }
    std::string str() const;

private:
    std::map<std::string, std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/// Outcome counts every workload reports.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;        ///< errors, rejections, failed checks
    std::uint64_t checks = 0;        ///< correctness checks run
    std::uint64_t checkFailures = 0; ///< ... that failed
    std::vector<std::string> firstFailures; ///< a few messages for stderr

    void fail(const std::string& why) {
        ++failed;
        if (firstFailures.size() < 8) firstFailures.push_back(why);
    }
    void check(bool ok, const std::string& why) {
        ++checks;
        if (!ok) {
            ++checkFailures;
            fail(why);
        }
    }
};

} // namespace rinbench
