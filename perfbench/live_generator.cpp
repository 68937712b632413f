// live-slp-bonjour generator: one slp::UserAgent over one net::OsNetwork at
// the daemon's port base, one lookup in flight at a time (closed loop).
//
// Latency is client-side wall time from lookup() to its callback; a lookup
// that never settles counts at its timeout. The daemon itself is started,
// scraped and stopped by perfbench/run.py. first_lookup_s runs from the
// creation of the client's network to the first callback.
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/net/os_network.hpp"
#include "core/telemetry/trace_export.hpp"
#include "protocols/slp/slp_agents.hpp"

namespace perfbench {

namespace {
/// What `--with-peers` co-hosts for slp-to-bonjour: the mDNS responder's
/// default service URL, answered back to the SLP client through the bridge.
const char* const kExpectedUrl = "http://10.0.0.3:631/ipp";
/// Client give-up window; a lookup normally settles in about 6 ms.
constexpr int kTimeoutMs = 2000;
}  // namespace

Report runLiveGenerator(const Args& args) {
    using namespace starlink;
    Report report;
    if (!net::OsNetwork::loopbackMulticastUsable()) {
        report.skipCode = 77;
        return report;
    }
    // The daemon's start-up, just before this process started, is CPU work:
    // run.py rescales it by this factor like the sim rows.
    const double scale = hostScale((calibrationUs() + calibrationUs()) / 2);
    const std::uint64_t origin = wallNs();
    net::OsNetwork::Options options;
    options.portBase = static_cast<std::uint16_t>(args.portBase);
    net::OsNetwork network{options};
    slp::UserAgent::Config config;
    config.timeout = net::ms(kTimeoutMs);
    slp::UserAgent client(network, config);

    std::vector<double> latencyMs;
    std::vector<telemetry::Span> spans;
    std::uint64_t discovered = 0;
    double firstLookupS = 0;
    const std::uint64_t start = wallNs();
    for (;;) {
        const std::size_t done = latencyMs.size();
        if (args.maxLookups > 0 ? done >= static_cast<std::size_t>(args.maxLookups)
                                : static_cast<double>(wallNs() - start) / 1e9 >= args.seconds) {
            break;
        }
        bool settled = false;
        std::string url;
        std::uint64_t end = 0;
        const std::uint64_t begin = wallNs();
        client.lookup("service:printer",
                      [&settled, &url, &end](const slp::UserAgent::Result& result) {
                          end = wallNs();
                          if (!result.urls.empty()) url = result.urls.front();
                          settled = true;
                      });
        network.runUntil([&settled] { return settled; },
                         net::ms(kTimeoutMs) + net::ms(2000));
        const bool ok = settled && url == kExpectedUrl;
        if (!settled) end = begin + static_cast<std::uint64_t>(kTimeoutMs) * 1'000'000ULL;
        latencyMs.push_back(static_cast<double>(end - begin) / 1e6);
        if (ok) ++discovered;
        if (done == 0) firstLookupS = static_cast<double>(end - origin) / 1e9;

        if (!args.traceOut.empty()) {
            telemetry::Span span;
            span.id = done + 1;
            span.session = done + 1;
            span.name = "bench.slp::UserAgent::lookup";
            span.start = net::TimePoint{} + net::us(static_cast<std::int64_t>((begin - origin) / 1000));
            span.end = net::TimePoint{} + net::us(static_cast<std::int64_t>((end - origin) / 1000));
            span.wallNs = end - begin;
            span.attrs.push_back({"timebase", "wall"});
            span.attrs.push_back({"result", ok ? "discovered" : settled ? url : "unsettled"});
            spans.push_back(std::move(span));
        }
    }
    const double wallS = static_cast<double>(wallNs() - start) / 1e9;

    report.attempted = latencyMs.size();
    report.failed = latencyMs.size() - discovered;
    report.check(discovered == latencyMs.size(),
                 "live: a lookup did not return " + std::string(kExpectedUrl));
    double totalMs = 0;
    for (const double ms : latencyMs) totalMs += ms;
    report.metrics["lookups"] = static_cast<double>(latencyMs.size());
    report.metrics["discovered"] = static_cast<double>(discovered);
    report.metrics["wall_s"] = wallS;
    report.metrics["first_lookup_s"] = firstLookupS;
    report.metrics["host_scale"] = scale;
    report.metrics["mean_ms"] = totalMs / static_cast<double>(latencyMs.size());
    report.metrics["lookup_ms_p50"] = percentile(latencyMs, 0.5);
    report.metrics["lookup_ms_p99"] = percentile(latencyMs, 0.99);

    if (!args.traceOut.empty()) {
        std::ofstream out(args.traceOut);
        out << telemetry::toChromeTrace(spans, "perfbench live-slp-bonjour generator");
    }
    return report;
}

}  // namespace perfbench
