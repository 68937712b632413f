// slbench -- the measured half of the bridge benchmark.
//
//   slbench sim --workload sim-clean|sim-chaos --seed N --seconds S
//                    --trace 0|1 [--models DIR] [--trace-out FILE]
//       Drives the six paper directions through a one-shard ShardEngine
//       (sim_workload.cpp).
//
//   slbench live-gen --port-base B --seconds S [--max-lookups N]
//                    [--trace-out FILE]
//       Closed-loop SLP lookup generator against a running
//       `starlinkd serve --transport=os` daemon (live_generator.cpp).
//
// Either mode prints one JSON line: metric values, attempted/failed counts
// and every failed correctness check. perfbench/run.py turns that line into
// the benchmark's result. Exit 77 = the workload cannot run on this host.
//
// Every operator new in the process is counted here, the way
// bench/capacity_sweep.cpp counts them, so allocation rows need no
// instrumentation inside the libraries.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {
std::atomic<std::uint64_t> g_allocCalls{0};
std::atomic<std::uint64_t> g_allocBytes{0};

// noinline keeps GCC from pairing the malloc/free behind the replacement
// operators at inlined call sites (-Wmismatched-new-delete false positive).
[[gnu::noinline]] void* countedAlloc(std::size_t size) noexcept {
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p != nullptr) {
        g_allocCalls.fetch_add(1, std::memory_order_relaxed);
        g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    }
    return p;
}

[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
    void* p = countedAlloc(size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
void* operator new[](std::size_t size) {
    void* p = countedAlloc(size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return countedAlloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return countedAlloc(size);
}
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { countedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { countedFree(p); }

namespace perfbench {

AllocSnapshot allocSnapshot() {
    return {g_allocCalls.load(std::memory_order_relaxed),
            g_allocBytes.load(std::memory_order_relaxed)};
}

namespace {
volatile std::uint64_t g_calibrationSink = 0;
}  // namespace

double calibrationUs() {
    const std::uint64_t t0 = wallNs();
    std::uint64_t acc = 0;
    for (int rep = 0; rep < 3; ++rep) {
        std::map<std::string, int> index;
        std::vector<std::string> keys;
        for (int i = 0; i < 1500; ++i) {
            std::string key = "key-" + std::to_string((i * 7919) % 1500) + "-suffix";
            index[key] = i;
            keys.push_back(std::move(key));
        }
        std::sort(keys.begin(), keys.end());
        for (const std::string& key : keys) acc += index[key] + key.find('-', 4);
    }
    g_calibrationSink = acc;
    return static_cast<double>(wallNs() - t0) / 1000.0;
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double peakRssMib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
}

namespace {
std::string jsonString(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}
}  // namespace

std::string Report::toJson() const {
    std::ostringstream out;
    out << "{\"attempted\": " << attempted << ", \"failed\": " << failed << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        out << (i ? ", " : "") << jsonString(failures[i]);
    }
    out << "], \"metrics\": {";
    bool first = true;
    char number[64];
    for (const auto& [name, value] : metrics) {
        std::snprintf(number, sizeof(number), "%.17g", std::isfinite(value) ? value : 0.0);
        out << (first ? "" : ", ") << jsonString(name) << ": " << number;
        first = false;
    }
    out << "}}";
    return out.str();
}

}  // namespace perfbench

namespace {

int usage() {
    std::cerr << "usage: slbench sim --workload sim-clean|sim-chaos --seed N\n"
                 "                        --seconds S --trace 0|1 [--models DIR]\n"
                 "                        [--trace-out FILE]\n"
                 "       slbench live-gen --port-base B --seconds S\n"
                 "                        [--max-lookups N] [--trace-out FILE]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Args args;
    args.mode = argc >= 2 ? argv[1] : "";
    try {
        for (int i = 2; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc) return usage();
            const std::string value = argv[++i];
            if (flag == "--workload") args.workload = value;
            else if (flag == "--seed") args.seed = std::stoull(value);
            else if (flag == "--seconds") args.seconds = std::stod(value);
            else if (flag == "--trace") args.trace = value == "1";
            else if (flag == "--models") args.modelsDir = value;
            else if (flag == "--trace-out") args.traceOut = value;
            else if (flag == "--port-base") args.portBase = std::stoi(value);
            else if (flag == "--max-lookups") args.maxLookups = std::stoi(value);
            else return usage();
        }
        perfbench::Report report;
        if (args.mode == "sim" && (args.workload == "sim-clean" || args.workload == "sim-chaos")) {
            report = perfbench::runSimWorkload(args);
        } else if (args.mode == "live-gen" && args.portBase > 0) {
            report = perfbench::runLiveGenerator(args);
        } else {
            return usage();
        }
        if (report.skipCode != 0) return report.skipCode;
        std::cout << report.toJson() << std::endl;
        return report.failures.empty() ? 0 : 1;
    } catch (const std::exception& error) {
        std::cerr << "slbench: " << error.what() << "\n";
        return 3;
    }
}
