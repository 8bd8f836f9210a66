/**
 * @file
 * Parallel figure-bench runner (docs/PERF.md).
 *
 * Every figure bench is an independent single-threaded simulation,
 * so this tool fans the binaries out over a thread pool and records
 * their wall-clock seconds:
 *
 *   sweeprunner bench  [--jobs J] [--quick] [--bindir DIR]
 *                      [--only NAME] [--out BENCH_figures.json]
 *
 * Stress seed sweeps, with their golden-digest check, are
 * tools/stress's (--jobs, --golden, --digests-out).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "sim/thread_pool.hh"
#include "cli.hh"

using namespace cenju;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sweeprunner bench [options]\n"
        "         --jobs J       worker threads (default: cores)\n"
        "         --quick        CENJU_QUICK=1 scaled-down runs\n"
        "         --bindir DIR   bench binary dir (default bench)\n"
        "         --only NAME    run just one bench\n"
        "         --out FILE     write BENCH_figures.json\n");
    return 2;
}

struct BenchOutcome
{
    std::string name;
    double seconds = 0;
    int exitCode = -1;
};

int
runBenchMode(int argc, char **argv)
{
    unsigned jobs = 0;
    bool quick = false;
    std::string bindir = "bench", only, outFile;

    cli::OptionParser args(argc, argv, 0);
    while (args.next()) {
        if (args.is("--jobs"))
            jobs = args.u32();
        else if (args.is("--quick"))
            quick = true;
        else if (args.is("--bindir"))
            bindir = args.value();
        else if (args.is("--only"))
            only = args.value();
        else if (args.is("--out"))
            outFile = args.value();
        else
            return usage();
    }

    static const char *const benches[] = {
        "fig4_directory_precision", "fig6_starvation",
        "fig10_store_latency",      "fig11a_rewriting_ratio",
        "fig11b_efficiency",        "fig12_speedup",
        "table1_directory_schemes", "table2_load_latency",
        "table3_cache_miss",        "table4_app_characteristics",
    };

    std::vector<BenchOutcome> results;
    for (const char *b : benches) {
        if (!only.empty() && only != b)
            continue;
        results.push_back({b, 0, -1});
    }
    if (results.empty()) {
        std::fprintf(stderr, "no bench matches --only %s\n",
                     only.c_str());
        return 2;
    }

    ThreadPool pool(jobs);
    std::printf("running %zu benches, jobs=%u quick=%d\n",
                results.size(), pool.threadCount(), (int)quick);
    std::mutex printMu;
    for (BenchOutcome &r : results) {
        pool.submit([&r, &bindir, quick, &printMu] {
            std::string cmd;
            if (quick)
                cmd += "CENJU_QUICK=1 ";
            cmd += bindir + "/" + r.name + " > /dev/null 2>&1";
            auto t0 = std::chrono::steady_clock::now();
            int rc = std::system(cmd.c_str());
            r.seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
            r.exitCode = rc;
            std::lock_guard<std::mutex> lk(printMu);
            std::printf("%-28s %8.3fs rc=%d\n", r.name.c_str(),
                        r.seconds, rc);
            std::fflush(stdout);
        });
    }
    pool.wait();

    double total = 0;
    int bad = 0;
    for (const BenchOutcome &r : results) {
        total += r.seconds;
        if (r.exitCode != 0)
            ++bad;
    }
    std::printf("total bench cpu-seconds: %.3f\n", total);

    if (!outFile.empty()) {
        std::ofstream out(outFile);
        out << "{\n  \"schema\": \"cenju-figures-bench-1\",\n"
            << "  \"quick\": " << (quick ? "true" : "false")
            << ",\n  \"results\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "    {\"name\": \"%s\", \"seconds\": "
                          "%.4f, \"exit\": %d}%s\n",
                          results[i].name.c_str(),
                          results[i].seconds, results[i].exitCode,
                          i + 1 < results.size() ? "," : "");
            out << buf;
        }
        out << "  ]\n}\n";
    }
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "bench") != 0)
        return usage();
    return runBenchMode(argc - 2, argv + 2);
}
