// rinbench: the repository's benchmark.
//
//   rinbench --workload {drag|fleet|pipeline} --seed N --seconds S --trace {0|1}
//            [--out-dir DIR] [--commit ID]
//   rinbench --list-metrics
//
// Prints a report (machine stamp, every measured metric with its unit,
// notes) and, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics for --trace 0, the
// per-layer metrics for --trace 1. Exits 1 when a correctness check fails.

#include <omp.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

extern char** environ;

namespace {

using namespace rinbench;

std::string readFirstLine(const char* path) {
    std::ifstream in(path);
    std::string line;
    if (in) std::getline(in, line);
    return line;
}

std::string machineStamp(const std::string& commit) {
    std::string quota = readFirstLine("/sys/fs/cgroup/cpu.max");
    if (quota.empty()) {
        const std::string q = readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
        const std::string p = readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
        if (!q.empty()) quota = q + " " + p;
    }
    std::ostringstream omp;
    bool first = true;
    for (char** e = environ; *e; ++e) {
        const std::string kv(*e);
        if (kv.rfind("OMP_", 0) != 0 && kv.rfind("GOMP_", 0) != 0) continue;
        omp << (first ? "" : ", ") << jsonString(kv);
        first = false;
    }
    std::ostringstream out;
    out << "{\"nproc\": " << visibleCpus()
        << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ", \"omp_max_threads\": " << omp_get_max_threads()
        << ", \"cgroup_cpu_quota\": " << jsonString(quota.empty() ? "none" : quota)
        << ", \"compiler\": " << jsonString(std::string("gcc ") + __VERSION__)
        << ", \"build_type\": " << jsonString(RINBENCH_BUILD_TYPE)
        << ", \"omp_env\": [" << omp.str() << "]"
        << ", \"commit\": " << jsonString(commit.empty() ? "unknown" : commit) << "}";
    return out.str();
}

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "rinbench: " << why << "\n"
              << "usage: rinbench --workload {drag|fleet|pipeline} --seed N --seconds S "
                 "--trace {0|1} [--out-dir DIR] [--commit ID]\n"
              << "       rinbench --list-metrics\n";
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    RunConfig cfg;
    std::string commit;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list-metrics") {
            for (const MetricSpec& s : endToEndMetrics())
                std::cout << "end_to_end " << s.name << " " << s.unit << "\n";
            for (const MetricSpec& s : perLayerMetrics())
                std::cout << "per_layer " << s.name << " " << s.unit << "\n";
            return 0;
        }
        if (i + 1 >= argc) usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                cfg.workload = v;
                haveWorkload = true;
            } else if (a == "--seed") {
                cfg.seed = std::stoull(v);
                haveSeed = true;
            } else if (a == "--seconds") {
                cfg.seconds = std::stod(v);
                haveSeconds = cfg.seconds > 0.0;
            } else if (a == "--trace") {
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                cfg.trace = v == "1";
                haveTrace = true;
            } else if (a == "--out-dir") {
                cfg.outDir = v;
            } else if (a == "--commit") {
                commit = v;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds (> 0) and --trace are required");

    RunResult result;
    try {
        if (cfg.workload == "drag")
            result = runDrag(cfg);
        else if (cfg.workload == "fleet")
            result = runFleet(cfg);
        else if (cfg.workload == "pipeline")
            result = runPipeline(cfg);
        else
            usage("unknown workload " + cfg.workload);
    } catch (const std::exception& e) {
        std::cerr << "rinbench: workload " << cfg.workload << " aborted: " << e.what()
                  << "\n";
        return 1;
    }

    MetricSheet& m = result.metrics;
    const Tally& t = result.tally;
    m.set("failed_frac",
          t.attempted == 0
              ? 0.0
              : static_cast<double>(t.failed) / static_cast<double>(t.attempted),
          "fraction");
    if (cfg.trace) zeroUnsetLayers(m);

    std::cout << "rinbench workload=" << cfg.workload << " seed=" << cfg.seed
              << " seconds=" << number(cfg.seconds) << " trace=" << (cfg.trace ? 1 : 0)
              << "\n";
    std::cout << "machine " << machineStamp(commit) << "\n";
    std::cout << "metrics (" << (cfg.trace ? "traced replay" : "untraced") << "):\n"
              << m.table();
    for (const std::string& n : result.notes) std::cout << "note: " << n << "\n";
    std::cout << "checks: " << t.checks << " run, " << t.checkFailures << " failed\n";
    for (const std::string& f : t.firstFailures)
        std::cerr << "rinbench: FAILED: " << f << "\n";

    const std::vector<MetricSpec>& specs =
        cfg.trace ? perLayerMetrics() : endToEndMetrics();
    std::vector<std::string> names;
    for (const MetricSpec& s : specs) {
        if (!m.has(s.name) || m.unit(s.name) != s.unit) {
            std::cerr << "rinbench: metric " << s.name << " not measured in " << s.unit
                      << "\n";
            return 1;
        }
        names.push_back(s.name);
    }
    const std::string metrics = m.json(names);
    const bool correct = t.checkFailures == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
              << ", \"metrics\": " << metrics << "}" << std::endl;
    return correct ? 0 : 1;
}
