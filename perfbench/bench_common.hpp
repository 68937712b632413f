// Shared helpers of slbench: wall clock, allocation counter,
// percentiles, process memory and the one-line JSON report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t wallNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Process-wide totals of the counting operator new (main.cpp).
struct AllocSnapshot {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};
AllocSnapshot allocSnapshot();

/// Host-speed calibration: a fixed CPU workload owned by the benchmark
/// (string building, ordered-map inserts and lookups, a sort), timed in wall
/// microseconds. Shared hosts run slower in phases that last seconds to
/// minutes; timing this loop next to each measured interval lets the sim
/// rows be rescaled to one reference host speed (hostScale). The loop calls
/// no Starlink code, so no change to the program can move it.
double calibrationUs();

/// Calibration time of the reference host; sim wall times are reported as
/// if the calibration loop had taken exactly this long.
inline constexpr double kReferenceCalibrationUs = 3000.0;

/// Factor that rescales a wall time measured next to a calibration of
/// `calibrationUs` to the reference host speed.
inline double hostScale(double calibrationUs) { return kReferenceCalibrationUs / calibrationUs; }

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> values, double q);

/// VmHWM of this process in MiB; 0 when unreadable.
double peakRssMib();

/// What one slbench mode hands back: named metric values plus the verdict of
/// every correctness check it made. Printed as one JSON line.
struct Report {
    std::map<std::string, double> metrics;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Exit code without printing a report (e.g. 77 = workload skipped).
    int skipCode = 0;

    void check(bool ok, const std::string& what) {
        if (!ok) failures.push_back(what);
    }
    std::string toJson() const;
};

struct Args {
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string modelsDir = "models";
    std::string traceOut;
    int portBase = 0;
    int maxLookups = 0;
};

Report runSimWorkload(const Args& args);
Report runLiveGenerator(const Args& args);

}  // namespace perfbench
