/**
 * @file
 * The benchmark's workloads, one entry point each.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench {

Result runB1Paced(const Args &args);
Result runAlexfcOffline(const Args &args);
Result runRemoteMix(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
