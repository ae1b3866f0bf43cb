#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rinbench {

double processCpuMs() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1000.0 +
               static_cast<double>(tv.tv_usec) / 1000.0;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

int visibleCpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
}

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream) {
    SeededStream s(seed * 0x100000001B3ull + stream * 0x9E3779B97F4A7C15ull + 1);
    return s.next();
}

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double tailPercentileFor(std::size_t n) {
    for (double p : {99.9, 99.0, 90.0, 50.0}) {
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
    }
    return 0.0;
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    double s = 0.0;
    for (double v : samples) s += v;
    return s / static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
    return percentile(std::move(samples), 50.0);
}

std::uint64_t SpanLog::begin(const char* name, std::uint64_t parent,
                             std::uint64_t request) {
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.startUs = nowUs();
    spans_.push_back(s);
    return s.id;
}

double SpanLog::end(std::uint64_t id) {
    Span& s = spans_.at(id - 1);
    s.endUs = nowUs();
    return s.ms();
}

bool SpanLog::writeChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (i) out << ',';
        out << "{\"name\":" << jsonString(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
            << ",\"ts\":" << number(s.startUs)
            << ",\"dur\":" << number(s.endUs - s.startUs)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

void MetricSheet::set(const std::string& name, double value, const std::string& unit) {
    auto it = index_.find(name);
    if (it != index_.end()) {
        entries_[it->second] = {name, value, unit};
        return;
    }
    index_[name] = entries_.size();
    entries_.push_back({name, value, unit});
}

const std::string& MetricSheet::unit(const std::string& name) const {
    auto it = index_.find(name);
    if (it == index_.end()) throw std::out_of_range("metric not set: " + name);
    return entries_[it->second].unit;
}

std::string MetricSheet::json(const std::vector<std::string>& names) const {
    std::ostringstream out;
    out << '{';
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Entry& e = entries_[index_.at(names[i])];
        out << (i ? ", " : "") << jsonString(e.name)
            << ": {\"value\": " << number(e.value) << ", \"unit\": " << jsonString(e.unit)
            << '}';
    }
    out << '}';
    return out.str();
}

std::string MetricSheet::table() const {
    std::ostringstream out;
    for (const Entry& e : entries_)
        out << "  " << e.name << " = " << number(e.value) << ' ' << e.unit << '\n';
    return out.str();
}

std::string ShareCounter::str() const {
    std::string out;
    for (const auto& [label, n] : counts_)
        out += (out.empty() ? "" : ", ") + label + " " +
               number(static_cast<double>(n) / static_cast<double>(total_));
    return out.empty() ? "none" : out;
}

std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string jsonString(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x", c);
                out += esc;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace rinbench
