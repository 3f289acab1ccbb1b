/**
 * @file
 * The kvbench traffic side: workloads, tagged values, the store stack
 * under test, and the client loops that run closed- and open-loop
 * phases through KvClient and verifies every response.
 */

#ifndef KVBENCH_TRAFFIC_HH
#define KVBENCH_TRAFFIC_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hh"
#include "envy/envy_store.hh"
#include "serve/kv_engine.hh"
#include "serve/server.hh"
#include "serve/socket_transport.hh"
#include "serve/transport.hh"
#include "sim/random.hh"
#include "workload/zipf.hh"

#include "measure.hh"

namespace kvbench {

/** One named traffic mix (kvbench/README.md says why each exists). */
struct Workload
{
    const char *name;
    double getFraction;      //!< GET share; the rest are PUTs
    double theta;            //!< zipf skew; 0 draws keys uniformly
    std::uint64_t keys;      //!< key population, all prefilled
    std::uint32_t valueBytes;
    bool tcp;                //!< TCP on 127.0.0.1, else loopback
    bool durable;            //!< persistent store, durable acks
    double openRps;          //!< the fixed open-loop offered rate
};

/** The workload named @p name, or null. */
const Workload *findWorkload(const std::string &name);

/** Client connections, one thread each. */
constexpr unsigned kClients = 4;

/** Immutable key distribution, shared by every thread that draws. */
class KeySpace
{
  public:
    explicit KeySpace(const Workload &w);
    std::uint64_t pick(envy::Rng &rng) const;

  private:
    std::uint64_t keys_;
    std::optional<envy::ZipfPicker> zipf_;
};

/**
 * A value tagged with its key: key (8 bytes), a writer sequence (4)
 * and a filler derived from both, so a value read back under the
 * wrong key, or torn between two writes, fails valueMatches().
 */
std::string makeValue(std::uint64_t key, std::uint32_t seq,
                      std::uint32_t bytes);
bool valueMatches(std::uint64_t key, std::string_view value,
                  std::uint32_t bytes);

/** A directory that is removed, with everything in it, on scope exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent);
    ~TempDir();
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** The store and the engine over it, prefilled with every key. */
struct Stack
{
    std::unique_ptr<TempDir> dir; //!< durable store files; null otherwise
    std::unique_ptr<envy::EnvyStore> store;
    std::unique_ptr<envy::serve::KvEngine> engine;
};

/** Construct the workload's store and engine and PUT every key. */
Stack buildStack(const Workload &w, const std::string &tmpParent);

/** A snapshot of the store's registry taken with the store quiesced. */
envy::obs::MetricsSnapshot quiescedSnapshot(envy::EnvyStore &store);

/** Server residence samples: request bytes read to response written. */
class ResidenceLog
{
  public:
    void add(double us);
    std::vector<double> take();

  private:
    envy::Mutex mu_;
    std::vector<double> us_ ENVY_GUARDED_BY(mu_);
};

/** How clients reach the server: loopback pairs or TCP on 127.0.0.1. */
class Endpoint
{
  public:
    Endpoint(envy::serve::Server &server,
             envy::serve::TcpListener *listener)
        : server_(server), listener_(listener)
    {}

    /**
     * Open one connection and attach its server end.  With @p log the
     * server end is wrapped in a decorator that records residence.
     */
    envy::serve::ByteStreamPtr
    dial(const std::shared_ptr<ResidenceLog> &log = nullptr);

  private:
    envy::serve::Server &server_;
    envy::serve::TcpListener *listener_;
};

/** One phase of traffic. */
struct PhaseSpec
{
    double seconds;
    double openRps = 0.0; //!< 0 runs a closed loop
    bool traced = false;
};

/** What the clients saw in one phase. */
struct PhaseResult
{
    double seconds = 0.0;
    /** Per request: completion minus send (closed loop) or minus the
     *  scheduled send (open loop).  A failed request reads as
     *  kFailedUs, past any latency limit. */
    std::vector<double> latUs;
    std::vector<double> atS;    //!< per latUs: when it was due, in seconds
    std::vector<double> spanUs; //!< send to response, traced phases
    /** Open loop: send minus the later of its schedule and the previous
     *  response, i.e. the generator's own lateness. */
    std::vector<double> lagUs;
    std::vector<double> residenceUs; //!< traced phases
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;   //!< error, shed, not found, wrong, lost
    std::uint64_t wrong = 0;    //!< wrong value, or a prefilled key missing
    std::uint64_t okGets = 0;
    std::uint64_t okPuts = 0;

    std::uint64_t ok() const { return okGets + okPuts; }
};

constexpr double kFailedUs = 60e6;

/** Run @p spec with kClients connections, one thread each. */
PhaseResult runPhase(const Workload &w, const KeySpace &keys,
                     Endpoint &endpoint, const PhaseSpec &spec,
                     std::uint64_t seed);

/** Median Stat round trip over @p stream, one client, idle server. */
Stat statRoundTripUs(envy::serve::ByteStreamPtr stream, unsigned n);

} // namespace kvbench

#endif // KVBENCH_TRAFFIC_HH
