/**
 * @file
 * Direct timings of single layers, made by calling each layer's public
 * functions from outside: Server::pump, KvEngine::get/put,
 * EnvyStore::read/write/persistFlush, Controller::backgroundCleanOnce
 * and FlashBank::programPage/readPage.  Run after the traffic phases,
 * on the store those phases used, with no server threads left.
 */

#ifndef KVBENCH_LAYERS_HH
#define KVBENCH_LAYERS_HH

#include <cstdint>

#include "traffic.hh"
#include "measure.hh"

namespace kvbench {

struct LayerTimes
{
    Stat pumpNs;        //!< per request through Server::pump
    Stat engineGetNs;
    Stat enginePutNs;
    Stat storeReadNs;   //!< EnvyStore::read of one value-sized chunk
    Stat storeWriteNs;  //!< EnvyStore::write of one value-sized chunk
    Stat writeScaling;  //!< store write ops/s, 4 threads over 1
    Stat flushUs;       //!< EnvyStore::persistFlush after one write
    Stat cleanMsP50;    //!< Controller::backgroundCleanOnce wall time
    Stat cleanMsMax;
    Stat programNs;     //!< FlashBank::programPage per page
    Stat readNs;        //!< FlashBank::readPage per page
    bool correct = true; //!< every value read back matched its key
};

/**
 * Time every layer in turn.  The store keeps its logical contents:
 * writes put back bytes just read, and cleans only move pages.  The
 * cleaner pool is stopped for the clean timings.
 */
LayerTimes timeLayers(Stack &stack, const Workload &w,
                      const KeySpace &keys, std::uint64_t seed);

} // namespace kvbench

#endif // KVBENCH_LAYERS_HH
