/**
 * @file
 * The JSON report write shared by the throughput benches
 * (bench_codec_throughput, bench_scrub_throughput,
 * bench_timing_throughput). A report that cannot be written exits 1,
 * so a CI gate never compares a stale file.
 */

#ifndef NVCK_BENCH_THROUGHPUT_REPORT_HH
#define NVCK_BENCH_THROUGHPUT_REPORT_HH

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

namespace nvck {

/** Write @p json to @p path, else print "cannot write" and exit 1. */
inline void
writeReport(const std::string &path, const std::string &json)
{
    std::ofstream os(path);
    os << json;
    os.close();
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        std::exit(1);
    }
    std::cout << "wrote " << path << "\n";
}

} // namespace nvck

#endif // NVCK_BENCH_THROUGHPUT_REPORT_HH
