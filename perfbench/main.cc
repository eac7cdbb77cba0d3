/**
 * @file
 * The serving benchmark's entry point:
 *
 *   perfbench --workload b1-paced|alexfc-offline|remote-mix
 *             --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * One process drives the serving stack through its public API and
 * checks every reply bit-exact against the scalar oracle. The seed
 * drives the weights, the input frames and the arrival schedule; the
 * program only ever sees the generated inputs.
 *
 * --trace 0 prints the end-to-end metrics, the same five on every
 * workload:
 *   setup_s         median time from the synthetic weights to the first
 *                   correct replies (compress, plan or registry load,
 *                   compile, connect) over several set-ups in the run
 *   rss_mb          VmRSS growth from just before the first endpoint or
 *                   daemon is built to the end of its measured load
 *   throughput_fps  replies per second (b1-paced: achieved open-loop
 *                   rate; closed loops: median over windows of a fixed
 *                   number of replies)
 *   p50_us, p99_us  geometric mean over the workload's request classes
 *                   of each class's percentile (the median over the
 *                   run's segments of each segment's percentile where
 *                   every segment supports it); every class's own
 *                   percentiles and sample counts are printed above
 * --trace 1 prints the per-layer metrics instead (a layer that is not
 * on the workload's path reads 0) and writes
 * DIR/trace-<workload>.json for chrome://tracing.
 *
 * The last line of standard output is the result object; the exit
 * code is nonzero when any request failed or any reply was wrong.
 */

#include <iostream>

#include "workloads.hh"

int
main(int argc, char **argv)
{
    perfbench::Args args;
    std::string error;
    if (!perfbench::parseArgs(argc, argv, args, error)) {
        std::cerr << "perfbench: " << error << "\n";
        return 2;
    }
    perfbench::Result result;
    if (args.workload == "b1-paced")
        result = perfbench::runB1Paced(args);
    else if (args.workload == "alexfc-offline")
        result = perfbench::runAlexfcOffline(args);
    else if (args.workload == "remote-mix")
        result = perfbench::runRemoteMix(args);
    else {
        std::cerr << "perfbench: unknown workload " << args.workload
                  << "\n";
        return 2;
    }
    if (result.attempted == 0)
        result.correct = false;
    perfbench::printResult(std::cout, args, result);
    return result.correct ? 0 : 1;
}
