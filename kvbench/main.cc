/**
 * @file
 * kvbench: drives the served eNVy KV stack (serve -> KvEngine -> envy
 * controller and cleaner -> write buffer -> flash, plus persist when
 * durable) with one named workload and prints its metrics.
 *
 *   kvbench --workload kv-read --seed 1 --seconds 16 --trace 0
 *   kvbench --self-test
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones; the last line of stdout is the JSON result.  kvbench/README.md
 * defines every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "traffic.hh"
#include "layers.hh"
#include "measure.hh"

using namespace kvbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 16.0;
    bool trace = false;
    std::string tmp = ".";
    bool smoke = false;
    bool selfTest = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "kvbench: %s\nusage: kvbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--tmp DIR] [--smoke]\n"
                 "       kvbench --self-test\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--tmp")
                a.tmp = v;
            else
                usage(("unknown argument " + k).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (!a.selfTest && (a.workload.empty() || a.seconds <= 0.0))
        usage("--workload and a positive --seconds are required");
    return a;
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * A phase's statistics are medians over its three thirds.  A host
 * scheduling stall of tens of milliseconds, or a slow stretch of the
 * shared host, lands in one third at a time; the cleaner's and the
 * checkpointer's stalls recur in every third and still set the
 * figures.
 */
Stat
quantileInThirds(const PhaseResult &p, double quantile)
{
    return windowedPercentile(p.latUs, p.atS, p.seconds, 3, quantile);
}

/** Verified responses per second, median over the phase's thirds
 *  (failed requests carry kFailedUs and are not counted). */
Stat
rateInThirds(const PhaseResult &p)
{
    return windowedRate(p.latUs, p.atS, p.seconds, 3, kFailedUs);
}

void
printPhase(const char *name, const PhaseResult &p, double openRps)
{
    std::vector<double> lat = p.latUs;
    const Stat p50 = percentile(lat, 0.50);
    const Stat p99 = percentile(lat, 0.99);
    std::printf("phase %-8s %5.2f s: attempted %llu failed %llu, "
                "%.0f rps", name, p.seconds,
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed),
                static_cast<double>(p.ok()) / p.seconds);
    if (openRps > 0.0)
        std::printf(" (offered %.0f)", openRps);
    std::printf(", p50 %.1f us, p99 %.1f us (n=%llu)", p50.value,
                p99.value, static_cast<unsigned long long>(p50.samples));
    if (!p.lagUs.empty()) {
        std::vector<double> lag = p.lagUs;
        const Stat l99 = percentile(lag, 0.99);
        const Stat o99 = quantileInThirds(p, 0.99);
        std::printf(", p99 of thirds %.1f us, gen.lag_us_p99 %.1f (n=%llu)",
                    o99.value, l99.value,
                    static_cast<unsigned long long>(l99.samples));
    }
    std::printf("\n");
}

/** Samples of @p a followed by @p b. */
std::vector<double>
joined(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> v = a;
    v.insert(v.end(), b.begin(), b.end());
    return v;
}

void
reportEndToEnd(Report &r, const std::vector<double> &setupS,
               const PhaseResult &closed, const PhaseResult &open,
               const Window &win)
{
    const double puts = static_cast<double>(closed.okPuts + open.okPuts);
    r.add("setup_s", "s", median(setupS), setupS.size());
    r.add("throughput_rps", "1/s", rateInThirds(closed));
    r.add("p50_us", "us", quantileInThirds(closed, 0.50));
    r.add("p99_us", "us", quantileInThirds(closed, 0.99));
    r.add("flash_writes_per_put", "pages",
          ratio(win.counter("flash.programs"), puts),
          closed.okPuts + open.okPuts);
    r.add("peak_rss_mb", "MB", peakRssMb(), 1);
}

void
reportPerLayer(Report &r, const PhaseResult &base, const PhaseResult &closed,
               const PhaseResult &open, const Window &win, double seconds,
               const Stat &tcpRtt, const Stat &loopRtt, const LayerTimes &t,
               std::uint64_t attempted, std::uint64_t failed)
{
    const std::uint64_t putsN = closed.okPuts + open.okPuts;
    const std::uint64_t getsN = closed.okGets + open.okGets;
    const double puts = static_cast<double>(putsN);
    const double requests = win.counter("serve.requests");
    const auto reqN = static_cast<std::uint64_t>(requests);
    std::vector<double> residence =
        joined(closed.residenceUs, open.residenceUs);
    const Stat spanMean = mean(joined(closed.spanUs, open.spanUs));
    const Stat resMean = mean(residence);
    const Stat execMean = win.histMean("serve.exec_us");
    const double hostWrites = win.counter("ctl.host_writes");
    const double epochs = win.counter("persist.group_commit.epochs");
    std::vector<double> lag = open.lagUs;

    r.add("transport.us_mean", "us", spanMean.value - resMean.value,
          spanMean.samples);
    r.add("transport.bytes_per_req", "bytes",
          ratio(win.counter("serve.bytes_in") +
                    win.counter("serve.bytes_out"),
                requests),
          reqN);
    r.add("transport.tcp_rtt_us", "us", tcpRtt);
    r.add("transport.loopback_rtt_us", "us", loopRtt);
    r.add("server.residence_us_p50", "us", percentile(residence, 0.50));
    r.add("server.residence_us_p99", "us", percentile(residence, 0.99));
    r.add("server.exec_us_mean", "us", execMean);
    r.add("server.exec_us_p99", "us",
          win.histPercentile("serve.exec_us", 0.99));
    r.add("server.wait_us_mean", "us", resMean.value - execMean.value,
          resMean.samples);
    r.add("server.queued_frac", "frac",
          ratio(win.counter("serve.queued"), requests), reqN);
    r.add("server.shed_frac", "frac",
          ratio(win.counter("serve.shed"),
                requests + win.counter("serve.shed")),
          reqN);
    r.add("server.pump_ns", "ns", t.pumpNs);
    r.add("engine.get_ns", "ns", t.engineGetNs);
    r.add("engine.put_ns", "ns", t.enginePutNs);
    r.add("engine.store_writes_per_put", "count", ratio(hostWrites, puts),
          putsN);
    r.add("engine.store_reads_per_op", "count",
          ratio(win.counter("ctl.host_reads"), requests), reqN);
    r.add("ctl.read_ns", "ns", t.storeReadNs);
    r.add("ctl.write_ns", "ns", t.storeWriteNs);
    r.add("ctl.write_scaling_4t", "ratio", t.writeScaling);
    r.add("ctl.cows_per_put", "count", ratio(win.counter("ctl.cows"), puts),
          putsN);
    r.add("ctl.buffer_hit_frac", "frac",
          ratio(win.counter("ctl.buffer_hits"), hostWrites),
          static_cast<std::uint64_t>(hostWrites));
    r.add("ctl.backpressure_waits_per_s", "1/s",
          win.counter("ctl.backpressure_waits") / seconds, 1);
    r.add("cleaner.cleans", "count",
          win.counter("cleaner.segments_cleaned"), 1);
    r.add("cleaner.clean_ms_p50", "ms", t.cleanMsP50);
    r.add("cleaner.clean_ms_max", "ms", t.cleanMsMax);
    r.add("cleaner.pages_copied_per_put", "pages",
          ratio(win.counter("cleaner.pages_copied"), puts), putsN);
    r.add("cleaner.victim_live_mean", "pages",
          win.histMean("cleaner.victim_live"));
    r.add("flash.program_ns", "ns", t.programNs);
    r.add("flash.read_ns", "ns", t.readNs);
    r.add("flash.page_reads_per_get", "pages",
          ratio(win.counter("flash.page_reads"),
                static_cast<double>(getsN)),
          getsN);
    r.add("flash.erases_per_s", "1/s", win.counter("flash.erases") / seconds,
          1);
    r.add("persist.acks_per_epoch", "count", ratio(puts, epochs),
          static_cast<std::uint64_t>(epochs));
    r.add("persist.epoch_us_p50", "us",
          win.histPercentile("persist.group_commit.epoch_us", 0.50));
    r.add("persist.epoch_us_p99", "us",
          win.histPercentile("persist.group_commit.epoch_us", 0.99));
    r.add("persist.records_per_put", "count",
          ratio(win.counter("persist.journal_records"), puts), putsN);
    r.add("persist.checkpoints_per_s", "1/s",
          win.counter("persist.checkpoints") / seconds, 1);
    r.add("persist.flush_us", "us", t.flushUs);
    r.add("journal_bytes_per_put", "bytes",
          ratio(win.counter("persist.journal_bytes"), puts), putsN);
    r.add("failed_frac", "frac",
          ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          attempted);
    r.add("open_p50_us", "us", quantileInThirds(open, 0.50));
    r.add("open_p99_us", "us", quantileInThirds(open, 0.99));
    r.add("gen.lag_us_p99", "us", percentile(lag, 0.99));
    r.add("trace.overhead_frac", "frac",
          1.0 - ratio(static_cast<double>(closed.ok()) / closed.seconds,
                      static_cast<double>(base.ok()) / base.seconds),
          base.ok());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.selfTest)
        return selfTest();
    const Workload *found = findWorkload(args.workload);
    if (!found)
        usage(("unknown workload " + args.workload).c_str());
    Workload w = *found;
    // A smoke run keeps every phase but shrinks the key population
    // and sets up once, so it finishes in seconds.
    if (args.smoke)
        w.keys = std::min<std::uint64_t>(w.keys, 20'000);

    std::printf("kvbench workload=%s seed=%llu seconds=%g trace=%d "
                "keys=%llu value_bytes=%u transport=%s open_rps=%.0f%s\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0,
                static_cast<unsigned long long>(w.keys), w.valueBytes,
                w.tcp ? "tcp" : "loopback", w.openRps,
                args.smoke ? " smoke" : "");
    std::fflush(stdout);

    // Set-up: store construction plus prefill, three times; the last
    // stack is the one measured.  More set-ups would steady kv-durable's
    // fraction-of-a-second median, but each writes the whole store file
    // and slows the shared disk for the runs that follow.
    std::vector<double> setupS;
    Stack stack;
    for (unsigned i = 0; i < (args.smoke ? 1u : 3u); ++i) {
        // Tear the previous stack down engine first, files last.
        stack.engine.reset();
        stack.store.reset();
        stack.dir.reset();
        const auto t0 = Clock::now();
        stack = buildStack(w, args.tmp);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }

    const KeySpace keys(w);
    envy::serve::ServeConfig serveCfg;
    serveCfg.workers = 4;
    serveCfg.durableAcks = w.durable;
    auto server = std::make_unique<envy::serve::Server>(
        *stack.store, *stack.engine, serveCfg);
    envy::serve::TcpListener listener(0);
    Endpoint endpoint(*server, w.tcp ? &listener : nullptr);

    const double closedS = 0.5 * args.seconds;
    const double openS = args.seconds - closedS;
    const std::uint64_t seed = args.seed;
    std::vector<PhaseResult> all;
    // Three seconds of closed-loop traffic use up the free space the
    // set-up cleaned ahead, so kv-churn's cleaner is in its steady
    // cycle before anything is measured.
    all.push_back(runPhase(w, keys, endpoint, {3.0}, seed));
    PhaseResult base;
    if (args.trace) {
        base = runPhase(w, keys, endpoint,
                        {std::min(closedS, 2.0)}, seed + 1);
        all.push_back(base);
    }
    const auto before = quiescedSnapshot(*stack.store);
    const PhaseResult closed = runPhase(
        w, keys, endpoint, {closedS, 0.0, args.trace}, seed + 2);
    const PhaseResult open = runPhase(
        w, keys, endpoint, {openS, w.openRps, args.trace}, seed + 3);
    const Window win(before, quiescedSnapshot(*stack.store));
    all.push_back(closed);
    all.push_back(open);

    std::uint64_t attempted = 0, failed = 0, wrong = 0;
    for (const PhaseResult &p : all) {
        attempted += p.attempted;
        failed += p.failed;
        wrong += p.wrong;
    }

    Stat tcpRtt, loopRtt;
    if (args.trace) {
        Endpoint loop(*server, nullptr), tcp(*server, &listener);
        loopRtt = statRoundTripUs(loop.dial(), 2000);
        tcpRtt = statRoundTripUs(tcp.dial(), 2000);
    }
    server.reset();

    printPhase("warmup", all.front(), 0.0);
    if (args.trace)
        printPhase("untraced", base, 0.0);
    printPhase("closed", closed, 0.0);
    printPhase("open", open, w.openRps);
    std::printf("cleans in window: %.0f\n",
                win.counter("cleaner.segments_cleaned"));

    Report report;
    bool correct = wrong == 0;
    if (args.trace) {
        const LayerTimes t = timeLayers(stack, w, keys, seed + 4);
        correct = correct && t.correct;
        reportPerLayer(report, base, closed, open, win, args.seconds, tcpRtt,
                       loopRtt, t, attempted, failed);
    } else {
        reportEndToEnd(report, setupS, closed, open, win);
    }

    std::printf("metrics (%s):\n", args.trace ? "per layer" : "end to end");
    report.printTable();
    if (!args.trace && !report.refused().empty()) {
        std::fprintf(stderr,
                     "kvbench: %zu end-to-end percentile(s) rest on too "
                     "few samples; no result\n",
                     report.refused().size());
        return 1;
    }
    if (!correct)
        std::fprintf(stderr, "kvbench: a value read back did not match "
                             "what was written\n");
    std::printf("%s\n",
                report.resultJson(correct, attempted, failed).c_str());
    return correct ? 0 : 1;
}
