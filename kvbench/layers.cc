#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "flash/flash_bank.hh"
#include "serve/client.hh"
#include "serve/loopback.hh"

namespace kvbench {

using envy::Addr;
using envy::Rng;
using namespace envy::serve;

namespace {

/** Wall time each timed loop runs for. */
constexpr double kLoopSeconds = 0.25;

std::span<const std::uint8_t>
bytesOf(const std::string &s)
{
    return {reinterpret_cast<const std::uint8_t *>(s.data()), s.size()};
}

/** Mean ns per call of @p op(i) over kLoopSeconds of calls. */
template <typename Op>
Stat
nsPerOp(Op &&op)
{
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(kLoopSeconds));
    Clock::time_point t;
    do {
        for (int k = 0; k < 64; ++k)
            op(n++);
        t = Clock::now();
    } while (t < end);
    return {static_cast<double>(nsBetween(t0, t)) / static_cast<double>(n),
            n, true};
}

/** Scatter key ranks over the store the way the engine's key hash
 *  scatters keys, so a skewed key stream makes skewed addresses. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

Addr
chunkAddr(const envy::EnvyStore &store, std::uint64_t rank,
          std::uint32_t chunk)
{
    return (mix64(rank) % (store.size() / chunk)) * chunk;
}

Stat
serverPumpNs(Stack &s, const Workload &w, const KeySpace &keys, Rng &rng,
             bool &correct)
{
    ServeConfig cfg;
    cfg.workers = 0;
    cfg.durableAcks = w.durable;
    Server server(*s.store, *s.engine, cfg);
    LoopbackPair pair = loopbackPair();
    server.attach(std::move(pair.server));
    KvClient client(std::move(pair.client));

    constexpr unsigned kBatch = 64;
    std::uint64_t requests = 0, ns = 0;
    std::uint32_t seq = 0;
    const auto end = Clock::now() +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kLoopSeconds));
    while (Clock::now() < end) {
        std::vector<std::pair<std::uint64_t, bool>> sent; // key, get
        for (unsigned i = 0; i < kBatch; ++i) {
            const std::uint64_t key = keys.pick(rng);
            const bool get = rng.chance(w.getFraction);
            if (get)
                client.sendGet(key);
            else
                client.sendPut(key, makeValue(key, ++seq, w.valueBytes));
            sent.emplace_back(key, get);
        }
        const auto t0 = Clock::now();
        const std::size_t handled = server.pump();
        ns += nsBetween(t0, Clock::now());
        requests += handled;
        Response resp;
        for (const auto &[key, get] : sent) {
            const bool ok = client.recv(resp, false) &&
                            resp.status == Status::Ok &&
                            (!get || valueMatches(key, resp.value,
                                                  w.valueBytes));
            correct = correct && ok;
        }
    }
    client.close();
    server.stop();
    return {static_cast<double>(ns) / static_cast<double>(requests),
            requests, true};
}

void
engineNs(Stack &s, const Workload &w, const KeySpace &keys, Rng &rng,
         LayerTimes &t)
{
    constexpr std::size_t kKeys = 1 << 14;
    std::vector<std::uint64_t> ks(kKeys);
    std::vector<std::string> vals(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i) {
        ks[i] = keys.pick(rng);
        vals[i] = makeValue(ks[i], static_cast<std::uint32_t>(i),
                            w.valueBytes);
    }
    bool ok = true;
    t.engineGetNs = nsPerOp([&](std::uint64_t i) {
        const std::uint64_t k = ks[i % kKeys];
        const KvEngine::GetResult r = s.engine->get(k);
        ok = ok && r.status == Status::Ok &&
             valueMatches(k, r.value, w.valueBytes);
    });
    t.enginePutNs = nsPerOp([&](std::uint64_t i) {
        const std::size_t j = i % kKeys;
        ok = s.engine->put(ks[j], bytesOf(vals[j])) == Status::Ok && ok;
    });
    t.correct = t.correct && ok;
}

/** Value-sized chunks of the store at addresses drawn like keys, with
 *  their current bytes, so writing them back changes nothing. */
struct Chunks
{
    std::vector<Addr> addrs;
    std::vector<std::vector<std::uint8_t>> bytes;
};

Chunks
readChunks(envy::EnvyStore &store, const Workload &w, const KeySpace &keys,
           Rng &rng, std::size_t n, int partition = -1)
{
    const std::uint32_t page = store.config().geom.pageSize;
    Chunks c;
    while (c.addrs.size() < n) {
        const Addr a = chunkAddr(store, keys.pick(rng), w.valueBytes);
        if (partition >= 0 &&
            (a / page) % 4 != static_cast<std::uint64_t>(partition))
            continue;
        c.addrs.push_back(a);
        c.bytes.emplace_back(w.valueBytes);
        store.read(a, c.bytes.back());
    }
    return c;
}

void
storeNs(envy::EnvyStore &store, const Workload &w, const KeySpace &keys,
        Rng &rng, LayerTimes &t)
{
    const Chunks c = readChunks(store, w, keys, rng, 1 << 14);
    const std::size_t n = c.addrs.size();
    std::vector<std::uint8_t> scratch(w.valueBytes);
    t.storeReadNs = nsPerOp(
        [&](std::uint64_t i) { store.read(c.addrs[i % n], scratch); });
    t.storeWriteNs = nsPerOp([&](std::uint64_t i) {
        store.write(c.addrs[i % n], c.bytes[i % n]);
    });
}

/** Store write ops/s with @p threads writers on disjoint pages. */
double
writeOpsPerSec(envy::EnvyStore &store, const std::vector<Chunks> &parts,
               unsigned threads)
{
    std::vector<std::uint64_t> ops(threads, 0);
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            const Chunks &c = parts[t];
            const auto end =
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(kLoopSeconds));
            std::uint64_t n = 0;
            do {
                for (int k = 0; k < 64; ++k, ++n)
                    store.write(c.addrs[n % c.addrs.size()],
                                c.bytes[n % c.addrs.size()]);
            } while (Clock::now() < end);
            ops[t] = n;
        });
    }
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread &th : ts)
        th.join();
    std::uint64_t total = 0;
    for (const std::uint64_t o : ops)
        total += o;
    return static_cast<double>(total) / secondsBetween(t0, Clock::now());
}

Stat
writeScaling(envy::EnvyStore &store, const Workload &w,
             const KeySpace &keys, Rng &rng)
{
    std::vector<Chunks> parts;
    for (int p = 0; p < 4; ++p)
        parts.push_back(readChunks(store, w, keys, rng, 1 << 12, p));
    const double one = writeOpsPerSec(store, parts, 1);
    const double four = writeOpsPerSec(store, parts, 4);
    return {ratio(four, one), 2, true};
}

Stat
persistFlushUs(envy::EnvyStore &store, const Workload &w,
               const KeySpace &keys, Rng &rng)
{
    if (!store.persistent())
        return {};
    const Chunks c = readChunks(store, w, keys, rng, 200);
    std::vector<double> us;
    for (std::size_t i = 0; i < c.addrs.size(); ++i) {
        store.write(c.addrs[i], c.bytes[i]);
        const auto t0 = Clock::now();
        store.persistFlush();
        us.push_back(static_cast<double>(nsBetween(t0, Clock::now())) /
                     1e3);
    }
    return percentile(us, 0.5);
}

void
cleanMs(envy::EnvyStore &store, LayerTimes &t)
{
    if (store.cleanerPool())
        store.cleanerPool()->stop();
    // A watermark above any partition's free space makes every call
    // clean one segment while a partition has anything to reclaim.
    const envy::PageCount watermark(std::uint64_t(1) << 40);
    std::vector<double> ms;
    for (int i = 0; i < 24; ++i) {
        const auto t0 = Clock::now();
        if (!store.controller().backgroundCleanOnce(watermark))
            break;
        ms.push_back(static_cast<double>(nsBetween(t0, Clock::now())) /
                     1e6);
    }
    t.cleanMsP50 = percentile(ms, 0.5);
    t.cleanMsMax = {ms.empty() ? 0.0 : *std::max_element(ms.begin(),
                                                         ms.end()),
                    ms.size(), true};
}

void
flashNs(const envy::Geometry &geom, LayerTimes &t)
{
    envy::FlashBank bank(geom.pageSize, geom.blockBytes, 2,
                         envy::FlashTiming{}, true);
    const std::uint32_t pages = geom.blockBytes;
    std::vector<std::uint8_t> page(geom.pageSize), back(geom.pageSize);
    std::uint64_t progNs = 0, readNs = 0, n = 0;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t i = 0; i < page.size(); ++i)
            page[i] = static_cast<std::uint8_t>((i * 7 + pass) | 1);
        bank.eraseSegment(0);
        auto t0 = Clock::now();
        for (std::uint32_t p = 0; p < pages; ++p) {
            page[0] = static_cast<std::uint8_t>(p | 1);
            bank.programPage(0, p, page);
        }
        progNs += nsBetween(t0, Clock::now());
        t0 = Clock::now();
        for (std::uint32_t p = 0; p < pages; ++p)
            bank.readPage(0, p, back);
        readNs += nsBetween(t0, Clock::now());
        n += pages;
        // Both loops ended on the last page: it must read back as
        // programmed.
        t.correct = t.correct && back == page;
    }
    t.programNs = {static_cast<double>(progNs) / static_cast<double>(n), n,
                   true};
    t.readNs = {static_cast<double>(readNs) / static_cast<double>(n), n,
                true};
}

} // namespace

LayerTimes
timeLayers(Stack &stack, const Workload &w, const KeySpace &keys,
           std::uint64_t seed)
{
    LayerTimes t;
    Rng rng(seed * 2'654'435'761u + 17);
    t.pumpNs = serverPumpNs(stack, w, keys, rng, t.correct);
    engineNs(stack, w, keys, rng, t);
    storeNs(*stack.store, w, keys, rng, t);
    t.writeScaling = writeScaling(*stack.store, w, keys, rng);
    t.flushUs = persistFlushUs(*stack.store, w, keys, rng);
    cleanMs(*stack.store, t);
    flashNs(stack.store->config().geom, t);
    return t;
}

} // namespace kvbench
