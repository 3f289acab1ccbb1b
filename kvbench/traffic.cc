#include "traffic.hh"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/loopback.hh"
#include "serve/protocol.hh"

namespace kvbench {

using envy::Rng;
using namespace envy::serve;

namespace {

// Offered open-loop rates sit at a third (kv-read) to two thirds
// (kv-durable) of each mix's closed-loop capacity on a 4-core host, so
// the open loop measures queueing behind stalls rather than saturation.
constexpr Workload kWorkloads[] = {
    {"kv-read", 0.95, 0.99, 500'000, 64, true, false, 20'000},
    {"kv-churn", 0.10, 0.0, 500'000, 64, false, false, 10'000},
    {"kv-durable", 0.0, 0.99, 10'000, 16, false, true, 20'000},
};

/** A server-side stream that stamps when each request's header is
 *  read and records, at its response, the server's residence. */
class ResidenceStream final : public ByteStream
{
  public:
    ResidenceStream(ByteStreamPtr inner, std::shared_ptr<ResidenceLog> log)
        : inner_(std::move(inner)), log_(std::move(log))
    {}

    std::size_t
    read(std::span<std::uint8_t> out, bool block) override
    {
        const std::size_t n = inner_->read(out, block);
        if (n > 0)
            scan(out.first(n), Clock::now());
        return n;
    }

    void
    write(std::span<const std::uint8_t> in) override
    {
        // The server writes each response in one call.  Stamp before
        // handing the bytes on, so the sample exists before the client
        // can observe the response.
        if (in.size() >= kHeaderBytes) {
            const auto now = Clock::now();
            const std::uint64_t id = loadU64(in.data() + 4);
            Clock::time_point arrived;
            bool found = false;
            {
                envy::MutexLock lock(mu_);
                auto it = arrivals_.find(id);
                if (it != arrivals_.end()) {
                    arrived = it->second;
                    arrivals_.erase(it);
                    found = true;
                }
            }
            if (found)
                log_->add(static_cast<double>(nsBetween(arrived, now)) /
                          1e3);
        }
        inner_->write(in);
    }

    void close() override { inner_->close(); }
    bool closed() const override { return inner_->closed(); }

  private:
    static std::uint64_t
    loadU64(const std::uint8_t *p)
    {
        std::uint64_t v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }

    /** Walk request framing: collect each header, skip its payload. */
    void
    scan(std::span<const std::uint8_t> bytes, Clock::time_point now)
    {
        std::size_t pos = 0;
        while (pos < bytes.size()) {
            if (skip_ > 0) {
                const std::size_t take = static_cast<std::size_t>(
                    std::min<std::uint64_t>(skip_, bytes.size() - pos));
                skip_ -= take;
                pos += take;
                continue;
            }
            const std::size_t take =
                std::min(kHeaderBytes - have_, bytes.size() - pos);
            std::memcpy(hdr_.data() + have_, bytes.data() + pos, take);
            have_ += take;
            pos += take;
            if (have_ < kHeaderBytes)
                break;
            std::uint32_t len;
            std::memcpy(&len, hdr_.data() + 12, sizeof len);
            {
                envy::MutexLock lock(mu_);
                arrivals_[loadU64(hdr_.data() + 4)] = now;
            }
            skip_ = len;
            have_ = 0;
        }
    }

    ByteStreamPtr inner_;
    std::shared_ptr<ResidenceLog> log_;
    // Reader-thread framing state.
    std::array<std::uint8_t, kHeaderBytes> hdr_{};
    std::size_t have_ = 0;
    std::uint64_t skip_ = 0;
    envy::Mutex mu_;
    std::unordered_map<std::uint64_t, Clock::time_point>
        arrivals_ ENVY_GUARDED_BY(mu_);
};

std::uint8_t
filler(std::uint64_t key, std::uint32_t seq, std::uint32_t i)
{
    return static_cast<std::uint8_t>(key * 131 + seq * 7 + i);
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

KeySpace::KeySpace(const Workload &w) : keys_(w.keys)
{
    if (w.theta > 0.0)
        zipf_.emplace(w.keys, w.theta);
}

std::uint64_t
KeySpace::pick(Rng &rng) const
{
    return zipf_ ? zipf_->pick(rng) : rng.below(keys_);
}

std::string
makeValue(std::uint64_t key, std::uint32_t seq, std::uint32_t bytes)
{
    std::string v(bytes, '\0');
    std::memcpy(v.data(), &key, sizeof key);
    std::memcpy(v.data() + 8, &seq, sizeof seq);
    for (std::uint32_t i = 12; i < bytes; ++i)
        v[i] = static_cast<char>(filler(key, seq, i));
    return v;
}

bool
valueMatches(std::uint64_t key, std::string_view value, std::uint32_t bytes)
{
    if (value.size() != bytes)
        return false;
    std::uint64_t k;
    std::uint32_t seq;
    std::memcpy(&k, value.data(), sizeof k);
    std::memcpy(&seq, value.data() + 8, sizeof seq);
    if (k != key)
        return false;
    for (std::uint32_t i = 12; i < bytes; ++i)
        if (static_cast<std::uint8_t>(value[i]) != filler(key, seq, i))
            return false;
    return true;
}

TempDir::TempDir(const std::string &parent)
{
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/kvbench-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr)
        ENVY_FATAL("kvbench: mkdtemp under ", parent, ": ",
                   std::strerror(errno));
    path_ = tmpl;
}

TempDir::~TempDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

Stack
buildStack(const Workload &w, const std::string &tmpParent)
{
    Stack s;
    envy::EnvyConfig cfg;
    cfg.geom = kvGeometryFor(w.keys + w.keys / 4);
    cfg.numWorkers = 4;
    cfg.numCleaners = 1;
    if (w.durable) {
        s.dir = std::make_unique<TempDir>(tmpParent);
        cfg.persistPath = s.dir->path() + "/store";
    }
    s.store = std::make_unique<envy::EnvyStore>(cfg);
    s.engine = std::make_unique<KvEngine>(*s.store, KvEngineConfig{});
    for (std::uint64_t k = 0; k < w.keys; ++k) {
        const std::string v = makeValue(k, 0, w.valueBytes);
        const Status st = s.engine->put(
            k, {reinterpret_cast<const std::uint8_t *>(v.data()), v.size()});
        ENVY_ASSERT(st == Status::Ok, "kvbench: prefill failed at key ", k);
    }
    // Let the cleaner catch up: clean until every partition has two
    // segments free.  Each run then starts from the same free space,
    // and kv-read's window needs no clean at all.
    const envy::PageCount ahead(2 * s.store->space().segmentCapacity().value());
    for (std::uint32_t i = 0; i < 3 * s.store->space().numLogical(); ++i)
        if (!s.store->controller().backgroundCleanOnce(ahead))
            break;
    if (w.durable)
        s.store->persistFlush();
    return s;
}

envy::obs::MetricsSnapshot
quiescedSnapshot(envy::EnvyStore &store)
{
    // Cleaner histograms are recorded under the structural lock, so
    // the snapshot takes it too.
    envy::obs::MetricsSnapshot snap;
    store.controller().quiesce(
        [&store, &snap] { snap = store.metrics().snapshot(); });
    return snap;
}

void
ResidenceLog::add(double us)
{
    envy::MutexLock lock(mu_);
    us_.push_back(us);
}

std::vector<double>
ResidenceLog::take()
{
    envy::MutexLock lock(mu_);
    return std::move(us_);
}

ByteStreamPtr
Endpoint::dial(const std::shared_ptr<ResidenceLog> &log)
{
    ByteStreamPtr client, server;
    if (listener_) {
        // connect() completes against the listen backlog, so the next
        // accept() returns this connection's server end.
        client = tcpConnect("127.0.0.1", listener_->port());
        server = listener_->accept();
    } else {
        LoopbackPair pair = loopbackPair();
        client = std::move(pair.client);
        server = std::move(pair.server);
    }
    if (log)
        server = std::make_unique<ResidenceStream>(std::move(server), log);
    server_.attach(std::move(server));
    return client;
}

namespace {

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(nsBetween(a, b)) / 1e3;
}

/** One client connection's share of a phase. */
class ClientLoop
{
  public:
    ClientLoop(const Workload &w, const KeySpace &keys, KvClient &client,
               const PhaseSpec &spec, std::uint64_t seed, PhaseResult &out)
        : w_(w), keys_(keys), client_(client), spec_(spec), rng_(seed),
          seq_(static_cast<std::uint32_t>(seed)), out_(out)
    {}

    void
    run(Clock::time_point start, Clock::time_point deadline)
    {
        start_ = start;
        if (spec_.openRps <= 0.0) {
            while (Clock::now() < deadline)
                if (!sendOne(Clock::now(), false))
                    return;
            return;
        }
        // Poisson arrivals at this connection's share of the rate.
        // The default 50 us timer slack would make every wake-up late.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        const double meanGapS = kClients / spec_.openRps;
        auto scheduled = start;
        for (;;) {
            scheduled += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(rng_.exponential(meanGapS)));
            if (scheduled >= deadline)
                return;
            std::this_thread::sleep_until(scheduled);
            if (!sendOne(scheduled, true))
                return;
        }
    }

  private:
    /** Send one request and check its response; false once the
     *  connection is gone. */
    bool
    sendOne(Clock::time_point origin, bool open)
    {
        const std::uint64_t key = keys_.pick(rng_);
        const bool get = rng_.chance(w_.getFraction);
        ++out_.attempted;
        const auto sent = Clock::now();
        const std::uint64_t id =
            get ? client_.sendGet(key)
                : client_.sendPut(key, makeValue(key, ++seq_, w_.valueBytes));
        Response resp;
        const bool answered = client_.recv(resp, true);
        const auto done = Clock::now();
        if (open) {
            // The generator's own lateness: how long after both the
            // schedule and the previous response this request left.
            // Waiting for a late response is the server's delay and
            // stays in the latency.
            out_.lagUs.push_back(usBetween(std::max(origin, prevDone_), sent));
        }
        prevDone_ = done;
        bool ok = answered && resp.requestId == id &&
                  resp.status == Status::Ok &&
                  resp.op == (get ? Op::Get : Op::Put);
        // Every key was prefilled, so a miss is a lost value.
        if ((answered && get && resp.status == Status::NotFound) ||
            (ok && get && !valueMatches(key, resp.value, w_.valueBytes))) {
            ++out_.wrong;
            ok = false;
        }
        out_.atS.push_back(secondsBetween(start_, origin));
        out_.latUs.push_back(ok ? usBetween(origin, done) : kFailedUs);
        if (!ok) {
            ++out_.failed;
            return answered;
        }
        ++(get ? out_.okGets : out_.okPuts);
        if (spec_.traced)
            out_.spanUs.push_back(usBetween(sent, done));
        return true;
    }

    const Workload &w_;
    const KeySpace &keys_;
    KvClient &client_;
    const PhaseSpec &spec_;
    Rng rng_;
    std::uint32_t seq_;
    PhaseResult &out_;
    Clock::time_point start_;
    Clock::time_point prevDone_{};
};

template <typename T>
void
append(std::vector<T> &to, const std::vector<T> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

} // namespace

PhaseResult
runPhase(const Workload &w, const KeySpace &keys, Endpoint &endpoint,
         const PhaseSpec &spec, std::uint64_t seed)
{
    const auto log = spec.traced ? std::make_shared<ResidenceLog>() : nullptr;
    std::vector<std::unique_ptr<KvClient>> clients;
    for (unsigned c = 0; c < kClients; ++c)
        clients.push_back(std::make_unique<KvClient>(endpoint.dial(log)));

    std::vector<PhaseResult> per(kClients);
    std::mutex doneMu;
    std::condition_variable doneCv;
    unsigned done = 0;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(spec.seconds));
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientLoop(w, keys, *clients[c], spec,
                       seed * 1'000'003 + c * 7919 + 1, per[c])
                .run(start, deadline);
            {
                std::lock_guard<std::mutex> lock(doneMu);
                ++done;
            }
            doneCv.notify_all();
        });
    }
    // A request still unanswered 10 s after the phase ends is lost:
    // closing its connection fails the blocked receive.
    {
        std::unique_lock<std::mutex> lock(doneMu);
        if (!doneCv.wait_until(lock, deadline + std::chrono::seconds(10),
                               [&] { return done == kClients; }))
            for (auto &client : clients)
                client->close();
    }
    for (std::thread &t : threads)
        t.join();
    for (auto &client : clients)
        client->close();

    PhaseResult r;
    r.seconds = spec.seconds;
    for (const PhaseResult &p : per) {
        append(r.latUs, p.latUs);
        append(r.atS, p.atS);
        append(r.spanUs, p.spanUs);
        append(r.lagUs, p.lagUs);
        r.attempted += p.attempted;
        r.failed += p.failed;
        r.wrong += p.wrong;
        r.okGets += p.okGets;
        r.okPuts += p.okPuts;
    }
    if (log)
        r.residenceUs = log->take();
    return r;
}

Stat
statRoundTripUs(ByteStreamPtr stream, unsigned n)
{
    KvClient client(std::move(stream));
    std::vector<double> us;
    Response resp;
    for (unsigned i = 0; i < n + n / 10; ++i) {
        const auto t0 = Clock::now();
        const std::uint64_t id = client.sendStat();
        const bool answered = client.recv(resp, true);
        const auto t1 = Clock::now();
        ENVY_ASSERT(answered && resp.requestId == id &&
                        resp.status == Status::Ok,
                    "kvbench: Stat round trip failed");
        if (i >= n / 10) // the first tenth warms the path
            us.push_back(usBetween(t0, t1));
    }
    client.close();
    return percentile(us, 0.5);
}

} // namespace kvbench
