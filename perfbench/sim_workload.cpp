// sim-clean and sim-chaos: the six paper directions, round-robin, through a
// one-shard ShardEngine on the simulated network.
//
// Everything is measured from outside src/: wall time around the public
// calls (ModelRegistry::loadDirectory, ShardEngine::submit/run), the spans
// and metrics the engine already exports when asked to (spanCapacity,
// mergeMetricsInto), and the process-wide counting operator new.
//
// Untraced run (--trace 0): set-up rounds, then equal batches until the
// time is up. Traced run (--trace 1): the native-lookup harness line, then
// half the time untraced and half traced, so the tracing overhead and the
// traced-equals-untraced outcome check come from one process.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/registry.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/error/error_code.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/trace_export.hpp"
#include "net/sim_network.hpp"
#include "protocols/mdns/mdns_agents.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"

namespace perfbench {
namespace {

using namespace starlink;
using bridge::models::kAllCases;

/// Lookups per ShardEngine batch: the same keys every batch, so outcome
/// vectors must repeat exactly.
constexpr std::size_t kBatchLookups = 2400;
constexpr int kMinBatches = 3;
constexpr int kSetupRounds = 7;
constexpr int kNativeLookups = 2000;
constexpr std::size_t kRecorderBytes = 1024 * 1024;

/// The MDLs the six directions parse and compose (codec `protocol` label).
const char* const kMdls[] = {"SLP", "DNS", "SSDP", "HTTP"};

/// Abort codes reported one by one; anything else lands in `other`.
const std::vector<errc::ErrorCode> kAbortRows = {
    errc::ErrorCode::EngineSessionTimeout, errc::ErrorCode::EngineRetryExhausted,
    errc::ErrorCode::EngineConnectRefused, errc::ErrorCode::EnginePeerClosed,
    errc::ErrorCode::Unclassified};

struct Workload {
    bool chaos = false;
    std::uint64_t seed = 0;
};

engine::ShardEngineOptions makeOptions(const Workload& w, bridge::ModelRegistry* registry,
                                       std::size_t spanCapacity) {
    engine::ShardEngineOptions options;
    options.shards = 1;
    options.baseSeed = w.seed;
    options.registry = registry;
    options.engine.spanCapacity = spanCapacity;
    if (w.chaos) {
        // bench/recorder_overhead.cpp's retransmit profile, recorder on.
        options.chaos = true;
        options.chaosLoss = 0.25;
        options.engine.receiveTimeout = net::ms(7000);
        options.engine.maxRetransmits = 5;
        options.engine.retransmitBackoff = 1.5;
        options.engine.retransmitJitter = net::ms(100);
        options.engine.sessionTimeout = net::ms(30000);
        options.engine.recorderSessionBytes = kRecorderBytes;
    }
    return options;
}

/// One span recorded by the benchmark itself around a public call, in wall
/// time since slbench started.
struct BenchSpans {
    std::uint64_t origin = wallNs();
    std::vector<telemetry::Span> spans;

    telemetry::SpanId add(const std::string& name, std::uint64_t begin, std::uint64_t end) {
        telemetry::Span span;
        span.id = 1'000'000'000ULL + spans.size() + 1;
        span.name = name;
        span.start = net::TimePoint{} + net::us(static_cast<std::int64_t>((begin - origin) / 1000));
        span.end = net::TimePoint{} + net::us(static_cast<std::int64_t>((end - origin) / 1000));
        span.wallNs = end - begin;
        span.attrs.push_back({"timebase", "wall"});
        spans.push_back(std::move(span));
        return spans.back().id;
    }
};

/// Sum of every sample of metric `name` whose label set contains `label`
/// (all samples when empty) in a Prometheus text exposition.
double sumMetric(const std::string& text, const std::string& name,
                 const std::string& label = "") {
    double total = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) eol = text.size();
        const std::string_view line(text.data() + pos, eol - pos);
        if (line.substr(0, name.size()) == name && line.size() > name.size() &&
            (line[name.size()] == '{' || line[name.size()] == ' ') &&
            (label.empty() || line.find(label) != std::string_view::npos)) {
            const std::size_t space = line.rfind(' ');
            total += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
        }
        pos = eol + 1;
    }
    return total;
}

/// Totals the process-wide registry holds while metrics are enabled: codec
/// wall time and bytes by MDL, and the sim network's fault injections.
struct GlobalTotals {
    std::map<std::string, double> parseNs, composeNs;
    double bytesIn = 0;
    double faultInjections = 0;

    static GlobalTotals now() {
        const std::string text = telemetry::MetricsRegistry::global().renderPrometheus();
        GlobalTotals totals;
        for (const char* mdl : kMdls) {
            const std::string label = std::string("protocol=\"") + mdl + "\"";
            totals.parseNs[mdl] = sumMetric(text, "starlink_codec_parse_ns_sum", label);
            totals.composeNs[mdl] = sumMetric(text, "starlink_codec_compose_ns_sum", label);
            totals.bytesIn += sumMetric(text, "starlink_codec_parse_bytes_total", label);
        }
        totals.faultInjections = sumMetric(text, "starlink_net_fault_injections_total");
        return totals;
    }

    void add(const GlobalTotals& other) {
        for (const char* mdl : kMdls) {
            parseNs[mdl] += other.parseNs.at(mdl);
            composeNs[mdl] += other.composeNs.at(mdl);
        }
        bytesIn += other.bytesIn;
        faultInjections += other.faultInjections;
    }

    /// this - earlier, scaled by `scale` for the wall-time entries.
    GlobalTotals since(const GlobalTotals& earlier, double scale = 1) const {
        GlobalTotals delta;
        for (const char* mdl : kMdls) {
            delta.parseNs[mdl] = scale * (parseNs.at(mdl) - earlier.parseNs.at(mdl));
            delta.composeNs[mdl] = scale * (composeNs.at(mdl) - earlier.composeNs.at(mdl));
        }
        delta.bytesIn = bytesIn - earlier.bytesIn;
        delta.faultInjections = faultInjections - earlier.faultInjections;
        return delta;
    }
};

struct Batch {
    double wallNs = 0;
    /// Mean of the calibrations timed right before and right after run().
    double calibrationUs = 0;
    AllocSnapshot allocs;
    std::vector<engine::SessionResult> results;
    // Traced only: the engine's spans, the merged shard registries, and the
    // process-wide registry's totals before and after run().
    std::vector<telemetry::Span> spans;
    std::string metricsText;
    GlobalTotals globalBefore, globalAfter;
};

Batch runBatch(const Workload& w, bridge::ModelRegistry& registry, bool traced,
               BenchSpans& benchSpans) {
    // Spans of every session of the batch must fit the per-island rings.
    const std::size_t spanCapacity = traced ? kBatchLookups * 16 : 0;
    Batch batch;
    if (traced) batch.globalBefore = GlobalTotals::now();
    const double calibrationBefore = calibrationUs();
    engine::ShardEngine shardEngine(makeOptions(w, &registry, spanCapacity));
    const std::uint64_t s0 = wallNs();
    for (std::size_t i = 0; i < kBatchLookups; ++i) {
        engine::SessionJob job;
        job.key = "lookup-" + std::to_string(i);
        job.caseId = kAllCases[i % 6];
        shardEngine.submit(std::move(job));
    }
    const AllocSnapshot a0 = allocSnapshot();
    const std::uint64_t t0 = wallNs();
    const auto& results = shardEngine.run();
    const std::uint64_t t1 = wallNs();
    const AllocSnapshot a1 = allocSnapshot();

    batch.wallNs = static_cast<double>(t1 - t0);
    batch.calibrationUs = (calibrationBefore + calibrationUs()) / 2;
    batch.allocs = {a1.calls - a0.calls, a1.bytes - a0.bytes};
    batch.results = results;
    if (traced) {
        benchSpans.add("bench.ShardEngine::submit", s0, t0);
        const telemetry::SpanId runSpan = benchSpans.add("bench.ShardEngine::run", t0, t1);
        benchSpans.spans.back().attrs.push_back({"lookups", std::to_string(kBatchLookups)});
        batch.spans = shardEngine.spans();
        // Hang every engine session root under the benchmark's run() span.
        for (telemetry::Span& span : batch.spans) {
            if (span.parent == 0) span.parent = runSpan;
        }
        telemetry::MetricsRegistry merged;
        shardEngine.mergeMetricsInto(merged);
        batch.metricsText = merged.renderPrometheus();
        batch.globalAfter = GlobalTotals::now();
    }
    return batch;
}

/// Lookups whose shard-invariant outcome (discovered + every bridge
/// session's SessionOutcome) differs between two batches of the same jobs.
std::size_t outcomeMismatches(const Batch& a, const Batch& b) {
    if (a.results.size() != b.results.size()) return std::max(a.results.size(), b.results.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        if (a.results[i].discovered != b.results[i].discovered ||
            a.results[i].outcomes != b.results[i].outcomes) {
            ++mismatches;
        }
    }
    return mismatches;
}

/// Counts a comparison: a lookup that did not repeat its outcome failed.
void checkRepeat(const Batch& reference, const Batch& batch, const char* what, Report& report) {
    const std::size_t mismatches = outcomeMismatches(reference, batch);
    report.check(mismatches == 0, what);
    report.failed += mismatches;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Native lookups over SimNetwork with no bridge: one network reused, fresh
/// service + client per lookup, as ShardEngine does per session.
struct NativeCost {
    double usPerLookup = 0;
    double allocsPerLookup = 0;
    int discovered = 0;
};

template <typename Service, typename Client, typename Ask>
NativeCost nativeLookups(Ask ask) {
    net::VirtualClock clock;
    net::EventScheduler scheduler(clock);
    net::SimNetwork network(scheduler);
    NativeCost cost;
    const double calibrationBefore = calibrationUs();
    const AllocSnapshot a0 = allocSnapshot();
    const std::uint64_t t0 = wallNs();
    for (int i = 0; i < kNativeLookups; ++i) {
        typename Service::Config serviceConfig;
        serviceConfig.seed = 1000 + static_cast<std::uint64_t>(i);
        Service service(network, serviceConfig);
        Client client(network, typename Client::Config{});
        bool found = false;
        ask(client, found);
        scheduler.runUntilIdle();
        if (found) ++cost.discovered;
    }
    const std::uint64_t t1 = wallNs();
    const AllocSnapshot a1 = allocSnapshot();
    const double scale = hostScale((calibrationBefore + calibrationUs()) / 2);
    cost.usPerLookup = scale * static_cast<double>(t1 - t0) / 1000.0 / kNativeLookups;
    cost.allocsPerLookup = static_cast<double>(a1.calls - a0.calls) / kNativeLookups;
    return cost;
}

std::map<std::string, NativeCost> nativeHarness() {
    std::map<std::string, NativeCost> costs;
    costs["slp"] = nativeLookups<slp::ServiceAgent, slp::UserAgent>(
        [](slp::UserAgent& c, bool& found) {
            c.lookup("service:printer",
                     [&found](const slp::UserAgent::Result& r) { found = !r.urls.empty(); });
        });
    costs["bonjour"] = nativeLookups<mdns::Responder, mdns::Resolver>(
        [](mdns::Resolver& c, bool& found) {
            c.browse("_printer._tcp.local",
                     [&found](const mdns::Resolver::Result& r) { found = !r.urls.empty(); });
        });
    costs["upnp"] = nativeLookups<ssdp::Device, ssdp::ControlPoint>(
        [](ssdp::ControlPoint& c, bool& found) {
            c.search("urn:schemas-upnp-org:service:printer:1",
                     [&found](const ssdp::ControlPoint::Result& r) { found = !r.urls.empty(); });
        });
    return costs;
}

/// Deterministic outcome rows of one batch (identical in every batch).
void outcomeRows(const Workload& w, const Batch& batch, Report& report, bool perLayer) {
    const double n = static_cast<double>(batch.results.size());
    std::size_t discovered = 0, sessions = 0, completed = 0, in = 0, out = 0, retransmits = 0;
    std::size_t uncoded = 0;
    std::map<errc::ErrorCode, std::size_t> aborts;
    std::map<std::string, std::vector<double>> translationMs;
    for (const auto& result : batch.results) {
        if (result.discovered) ++discovered;
        bool escaped = false;
        for (const auto& o : result.outcomes) {
            escaped = escaped || o.code == errc::ErrorCode::Unclassified;
            ++sessions;
            in += o.messagesIn;
            out += o.messagesOut;
            retransmits += o.retransmits;
            if (o.completed) {
                ++completed;
                translationMs[bridge::models::caseSlug(result.job.caseId)].push_back(
                    static_cast<double>(o.translationUs) / 1000.0);
            } else {
                ++aborts[o.code];
            }
        }
        if (escaped) ++uncoded;
    }
    // A failed lookup is one whose outcome breaks the workload's rule: on
    // sim-clean every lookup is discovered; under chaos a lookup may be lost
    // to the injected faults (that is discovered_frac), but never to an
    // uncoded abort.
    report.attempted += batch.results.size();
    report.failed += w.chaos ? uncoded : batch.results.size() - discovered;
    report.check(aborts.count(errc::ErrorCode::Unclassified) == 0,
                 "an abort escaped the error taxonomy (Unclassified)");
    if (!w.chaos) {
        report.check(discovered == batch.results.size(), "sim-clean: a lookup was not discovered");
        report.check(completed == sessions && sessions == batch.results.size(),
                     "sim-clean: a bridge session did not complete with code Ok");
        report.check(retransmits == 0, "sim-clean: retransmits must read zero");
    }
    if (!perLayer) {
        report.metrics["discovered_frac"] = static_cast<double>(discovered) / n;
        report.metrics["completed_frac"] =
            sessions == 0 ? 0 : static_cast<double>(completed) / static_cast<double>(sessions);
        return;
    }
    report.metrics["engine.bridge_sessions_per_lookup"] = static_cast<double>(sessions) / n;
    report.metrics["engine.messages_in_per_lookup"] = static_cast<double>(in) / n;
    report.metrics["engine.messages_out_per_lookup"] = static_cast<double>(out) / n;
    report.metrics["engine.retransmits_per_lookup"] = static_cast<double>(retransmits) / n;
    std::size_t other = 0;
    for (const auto& [code, count] : aborts) {
        if (std::find(kAbortRows.begin(), kAbortRows.end(), code) == kAbortRows.end()) {
            other += count;
        }
    }
    for (const errc::ErrorCode code : kAbortRows) {
        report.metrics[std::string("engine.aborts.") + errc::to_string(code)] =
            static_cast<double>(aborts.count(code) ? aborts.at(code) : 0);
    }
    report.metrics["engine.aborts.other"] = static_cast<double>(other);
    for (const auto c : kAllCases) {
        const std::string slug = bridge::models::caseSlug(c);
        report.metrics["engine.translation_ms_p50." + slug] = median(translationMs[slug]);
    }
}

/// Host-scaled wall nanoseconds the engine's spans attribute to each leg,
/// summed over batches. Parse and compose are split by MDL from the codec
/// registry instead: the engine's instant spans carry no `protocol`
/// attribute.
struct SpanSplit {
    double parseNs = 0, composeNs = 0, translationLogicNs = 0, sendNs = 0, allNs = 0;
};

void addSpans(const Batch& batch, double scale, SpanSplit& split) {
    for (const telemetry::Span& span : batch.spans) {
        if (span.attr("timebase") != nullptr) continue;  // the benchmark's own
        const double ns = scale * static_cast<double>(span.wallNs);
        split.allNs += ns;
        if (span.name == "parse") split.parseNs += ns;
        else if (span.name == "compose") split.composeNs += ns;
        else if (span.name == "translation-logic") split.translationLogicNs += ns;
        else if (span.name == "send") split.sendNs += ns;
    }
}

void writeTrace(const std::string& path, const std::vector<telemetry::Span>& spans,
                const std::string& workload) {
    if (path.empty()) return;
    std::ofstream out(path);
    out << telemetry::toChromeTrace(spans, "perfbench " + workload);
}

}  // namespace

Report runSimWorkload(const Args& args) {
    Report report;
    const Workload w{args.workload == "sim-chaos", args.seed};
    BenchSpans benchSpans;
    // sim-chaos runs with the operator's metrics on; sim-clean keeps the
    // shipped default (off) outside the traced batches.
    telemetry::setEnabled(w.chaos);

    // -- set-up: registry load + lint gate, then the first deploy of every
    // direction's island (one lookup each). Median of several rounds.
    std::vector<double> setupS, loadMs, deployMs;
    for (int round = 0; round < kSetupRounds; ++round) {
        const double calibrationBefore = calibrationUs();
        const std::uint64_t t0 = wallNs();
        bridge::ModelRegistry registry;
        registry.loadDirectory(args.modelsDir);
        const std::uint64_t t1 = wallNs();
        engine::ShardEngine shardEngine(makeOptions(w, &registry, 0));
        for (const auto c : kAllCases) {
            shardEngine.submit({std::string("setup-") + bridge::models::caseSlug(c), c, 0});
        }
        const auto& results = shardEngine.run();
        const std::uint64_t t2 = wallNs();
        const double scale = hostScale((calibrationBefore + calibrationUs()) / 2);
        for (const auto& result : results) {
            report.check(w.chaos || result.discovered, "set-up lookup was not discovered");
        }
        setupS.push_back(scale * static_cast<double>(t2 - t0) / 1e9);
        loadMs.push_back(scale * static_cast<double>(t1 - t0) / 1e6);
        deployMs.push_back(scale * static_cast<double>(t2 - t1) / 1e6);
        if (args.trace && round == 0) {
            benchSpans.add("bench.ModelRegistry::loadDirectory", t0, t1);
            benchSpans.add("bench.first-deploy", t1, t2);
        }
    }

    bridge::ModelRegistry registry;
    registry.loadDirectory(args.modelsDir);

    std::map<std::string, NativeCost> native;
    if (args.trace) native = nativeHarness();

    // -- measured batches: per batch, host-scaled and raw wall per lookup.
    const double n = kBatchLookups;
    const double untracedSeconds = args.trace ? args.seconds / 2 : args.seconds;
    // The first batch is kept whole (the reference outcomes); later batches
    // are compared against it and dropped.
    std::optional<Batch> reference;
    AllocSnapshot steadyAllocs;
    std::vector<double> lookupUs, rawLookupUs, calibrations;
    const std::uint64_t start = wallNs();
    while (lookupUs.size() < kMinBatches ||
           static_cast<double>(wallNs() - start) / 1e9 < untracedSeconds) {
        Batch batch = runBatch(w, registry, false, benchSpans);
        rawLookupUs.push_back(batch.wallNs / 1000.0 / n);
        calibrations.push_back(batch.calibrationUs);
        lookupUs.push_back(hostScale(batch.calibrationUs) * rawLookupUs.back());
        std::fprintf(stderr, "perfbench: batch %zu: %.3f us/lookup raw, calibration %.1f us\n",
                     lookupUs.size(), rawLookupUs.back(), batch.calibrationUs);
        // Allocation rows come from the second batch: the first also pays
        // one-time growth of process-wide tables.
        if (lookupUs.size() == 2) steadyAllocs = batch.allocs;
        if (!reference) {
            reference = std::move(batch);
        } else {
            checkRepeat(*reference, batch, "outcomes differ between batches of one run", report);
        }
    }
    const double wallUs = median(lookupUs);

    if (!args.trace) {
        outcomeRows(w, *reference, report, false);
        report.metrics["setup_s"] = median(setupS);
        report.metrics["wall_us_per_lookup"] = wallUs;
        report.metrics["lookup_ms_p50"] = percentile(lookupUs, 0.5) / 1000.0;
        report.metrics["lookups_per_s"] = report.metrics["discovered_frac"] * 1e6 / wallUs;
        report.metrics["peak_rss_mib"] = peakRssMib();
        return report;
    }

    // -- traced batches: spans + metrics on, same jobs. Per-layer rows pool
    // every traced batch (host-scaled per batch), so span self time +
    // engine.other_ns + harness add up to the traced wall.
    telemetry::setEnabled(true);
    SpanSplit split;
    GlobalTotals pooled;
    double tracedNs = 0, recorderKib = 0;
    std::size_t tracedBatches = 0;
    std::vector<telemetry::Span> lastSpans;
    const std::uint64_t tracedStart = wallNs();
    while (tracedBatches < kMinBatches ||
           static_cast<double>(wallNs() - tracedStart) / 1e9 < args.seconds / 2) {
        Batch batch = runBatch(w, registry, true, benchSpans);
        ++tracedBatches;
        checkRepeat(*reference, batch, "traced outcomes differ from untraced outcomes", report);
        report.check(sumMetric(batch.metricsText, "starlink_telemetry_spans_dropped") == 0,
                     "span rings dropped spans; the per-layer split would be partial");
        const double scale = hostScale(batch.calibrationUs);
        addSpans(batch, scale, split);
        pooled.add(batch.globalAfter.since(batch.globalBefore, scale));
        tracedNs += scale * batch.wallNs;
        recorderKib = std::max(recorderKib,
                               sumMetric(batch.metricsText,
                                         "starlink_telemetry_recorder_reserved_bytes") / 1024.0);
        lastSpans = std::move(batch.spans);
    }

    outcomeRows(w, *reference, report, true);
    report.metrics["alloc.count_per_lookup"] = static_cast<double>(steadyAllocs.calls) / n;
    report.metrics["alloc.kib_per_lookup"] = static_cast<double>(steadyAllocs.bytes) / 1024.0 / n;

    double harnessUs = 0;
    for (const auto& [name, cost] : native) {
        report.metrics["protocols.native_lookup_us." + name] = cost.usPerLookup;
        report.metrics["protocols.native_allocs." + name] = cost.allocsPerLookup;
        report.check(cost.discovered == kNativeLookups, "native " + name + " lookup failed");
        harnessUs += cost.usPerLookup / 3.0;
    }

    const double lookups = n * static_cast<double>(tracedBatches);
    double codecNs = 0;
    for (const char* mdl : kMdls) {
        report.metrics[std::string("mdl.parse_ns.") + mdl] = pooled.parseNs[mdl] / lookups;
        report.metrics[std::string("mdl.compose_ns.") + mdl] = pooled.composeNs[mdl] / lookups;
        codecNs += pooled.parseNs[mdl] + pooled.composeNs[mdl];
    }
    report.metrics["mdl.bytes_in_per_lookup"] = pooled.bytesIn / lookups;
    report.metrics["live.bridge_cpu_us_per_lookup"] = codecNs / lookups / 1000.0;
    report.metrics["engine.parse_span_ns"] = split.parseNs / lookups;
    report.metrics["engine.compose_span_ns"] = split.composeNs / lookups;
    report.metrics["engine.translation_logic_ns"] = split.translationLogicNs / lookups;
    report.metrics["net.send_ns"] = split.sendNs / lookups;
    report.metrics["engine.span_self_ns"] = split.allNs / lookups;
    const double tracedWallUs = tracedNs / lookups / 1000.0;
    report.metrics["engine.traced_wall_us_per_lookup"] = tracedWallUs;
    report.metrics["engine.other_ns"] =
        (tracedNs - split.allNs) / lookups - harnessUs * 1000.0;
    report.metrics["net.sim.fault_injections_per_lookup"] = pooled.faultInjections / lookups;
    report.metrics["telemetry.recorder_reserved_kib"] = recorderKib;
    report.metrics["harness_us_per_lookup"] = harnessUs;
    report.metrics["harness_share"] = harnessUs / wallUs;
    report.metrics["telemetry.tracing_overhead_pct"] = 100.0 * (tracedWallUs - wallUs) / wallUs;
    report.metrics["bridge.registry_load_ms"] = median(loadMs);
    report.metrics["shard.first_deploy_ms"] = median(deployMs);
    report.metrics["lookup_ms_p99"] = percentile(lookupUs, 0.99) / 1000.0;
    report.metrics["host.calibration_us"] = median(calibrations);
    report.metrics["host.raw_wall_us_per_lookup"] = median(rawLookupUs);
    report.check(w.chaos || recorderKib == 0,
                 "sim-clean: the default-off flight recorder reserved memory");

    std::vector<telemetry::Span> spans = benchSpans.spans;
    spans.insert(spans.end(), lastSpans.begin(), lastSpans.end());
    writeTrace(args.traceOut, spans, args.workload);
    return report;
}

}  // namespace perfbench
