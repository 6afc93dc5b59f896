/**
 * @file
 * Benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Untraced (--trace 0): set up the workload, then run whole rounds of
 * fixed-size repetitions until S seconds have passed, and report the
 * end-to-end metrics.  The rate is the 90th percentile of the per-
 * repetition rates after a one-second warm-up: on a shared host the
 * fastest repetitions repeat from run to run, the slow ones do not
 * (see the README's noise study).
 *
 * Traced (--trace 1): S/2 seconds untraced, S/2 seconds with a span
 * around every library call, then the isolated layer suite; reports
 * the per-layer metrics and writes the spans as JSON lines to
 * .bench_out/spans-NAME-SEED.jsonl.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics.  Exit status 2 flags bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "spans.hh"

namespace perfbench
{
namespace
{

constexpr double kWarmupSeconds = 1.0;
constexpr size_t kSpanCapacity = size_t{1} << 18;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\nworkloads: "
                 "traffic_qpc_read traffic_amd_write_faults campaign_ccca "
                 "montecarlo_data\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end || val.empty())
                usage("bad --seed");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (*end || !(o.seconds > 0.0) || o.seconds > 3600.0)
                usage("bad --seconds");
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("bad --trace");
            o.trace = val == "1";
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "traffic_qpc_read")
        return makeTrafficQpcRead(seed);
    if (name == "traffic_amd_write_faults")
        return makeTrafficAmdWriteFaults(seed);
    if (name == "campaign_ccca")
        return makeCampaignCcca(seed);
    if (name == "montecarlo_data")
        return makeMonteCarloData(seed);
    usage(("unknown workload " + name).c_str());
}

/** Per-repetition rates of one timed pass. */
struct Timed
{
    std::vector<double> rates; ///< ops/s, warm-up excluded
    uint64_t ops = 0;
    double wallS = 0.0;

    double
    opsPerSec() const
    {
        return rates.empty() ? ops / wallS : quantile(rates, 0.9);
    }
};

/** Whole rounds until @p seconds have passed. */
Timed
runTimed(Workload &w, double seconds, double warmupS, SpanRecorder *spans)
{
    Timed out;
    const Clock::time_point start = Clock::now();
    uint64_t repId = 0;
    do {
        for (size_t r = 0; r < w.repsPerRound(); ++r, ++repId) {
            const uint32_t sid = spans ? spans->begin("rep", 0, repId) : 0;
            const Clock::time_point t = Clock::now();
            const uint64_t ops = w.runRep(r, spans, sid);
            const double dt = secondsSince(t);
            if (spans)
                spans->end(sid);
            out.ops += ops;
            if (secondsSince(start) > warmupS && dt > 0.0)
                out.rates.push_back(static_cast<double>(ops) / dt);
        }
    } while (secondsSince(start) < seconds);
    out.wallS = secondsSince(start);
    std::fprintf(stderr,
                 "perfbench: %zu timed reps over %.2f s; rep ops/s "
                 "min %.6g p25 %.6g p50 %.6g p75 %.6g p90 %.6g max %.6g; "
                 "mean %.6g\n",
                 out.rates.size(), out.wallS, quantile(out.rates, 0.0),
                 quantile(out.rates, 0.25), quantile(out.rates, 0.5),
                 quantile(out.rates, 0.75), quantile(out.rates, 0.9),
                 quantile(out.rates, 1.0), out.ops / out.wallS);
    return out;
}

void
printResult(bool correct, const Workload &w, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(w.attempted()),
                static_cast<unsigned long long>(w.failed()));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
run(int argc, char **argv, Clock::time_point processStart)
{
    const Options opt = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(opt.workload, opt.seed);
    w->setup();
    const double setupS = secondsSince(processStart);

    Metrics metrics;
    if (!opt.trace) {
        const Timed t = runTimed(*w, opt.seconds, kWarmupSeconds, nullptr);
        metrics.push_back({"ops_per_s", "ops/s", t.opsPerSec()});
        metrics.push_back({"setup_s", "s", setupS});
        metrics.push_back({"peak_rss_mb", "MB", peakRssMb()});
    } else {
        SpanRecorder spans(kSpanCapacity);
        const Timed plain =
            runTimed(*w, opt.seconds / 2, kWarmupSeconds, nullptr);
        const Timed traced = runTimed(*w, opt.seconds / 2, 0.0, &spans);
        runLayerSuite(opt.seed, spans, metrics);
        metrics.push_back({"trace.ops_per_s_untraced", "ops/s",
                           plain.opsPerSec()});
        metrics.push_back({"trace.ops_per_s_traced", "ops/s",
                           traced.opsPerSec()});
        metrics.push_back(
            {"trace.overhead_pct", "%",
             100.0 * (plain.opsPerSec() / traced.opsPerSec() - 1.0)});
        metrics.push_back({"trace.spans", "count",
                           static_cast<double>(spans.recorded())});
        std::error_code ec;
        std::filesystem::create_directories(".bench_out", ec);
        const std::string path = ".bench_out/spans-" + opt.workload + "-" +
                                 std::to_string(opt.seed) + ".jsonl";
        if (!spans.writeJsonl(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::fprintf(stderr, "perfbench: spans written to %s\n",
                     path.c_str());
    }

    std::string why;
    const bool correct = w->verify(why);
    if (!correct)
        std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    printResult(correct, *w, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Clock::time_point processStart =
        perfbench::Clock::now();
    return perfbench::run(argc, argv, processStart);
}
