/**
 * @file
 * Extension study (§VI-B): one-time BBC encoding cost and its
 * amortization. The paper reports the conversion "comparable to the
 * execution time of a few hundred SpMV operations" and amortized
 * away in iterative applications. This bench measures the actual
 * wall-clock encode time of this implementation, converts the
 * simulated Uni-STC SpMV cycle count to time at 1.5 GHz, and reports
 * the break-even invocation count — plus the zero-cost reload path
 * via the binary BBC file format.
 */

#include <chrono>
#include <filesystem>
#include <functional>
#include <cstdio>

#include "bbc/bbc_io.hh"
#include "bench_common.hh"
#include "corpus/representative.hh"
#include "driver/tmpdir.hh"
#include "runner/spmv_runner.hh"

using namespace unistc;

namespace
{

double
wallMs(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

} // namespace

int
main(int, char **)
{
    const MachineConfig cfg = MachineConfig::fp64();

    TextTable t("Extension: BBC encoding cost vs simulated kernel "
                "time");
    t.setHeader({"Matrix", "encode (ms)", "reload (ms)",
                 "SpMV time @1.5GHz", "break-even SpMVs"});

    // A private directory for the BBC images, so concurrent runs never
    // overwrite or delete each other's file.
    const Result<std::string> dir = driver::makeTempDir("unistc-conv-");
    if (!dir.ok())
        UNISTC_FATAL("scratch directory: ", dir.status().message());
    const std::string path = dir.value() + "/reload.bbc";

    for (const auto &nm : representativeMatrices()) {
        BbcMatrix bbc;
        const double encode_ms =
            wallMs([&] { bbc = BbcMatrix::fromCsr(nm.matrix); });

        // Save + reload via the binary format (§IV-D's file I/O).
        saveBbcFile(path, bbc);
        BbcMatrix reloaded;
        const double reload_ms =
            wallMs([&] { reloaded = loadBbcFile(path); });
        std::remove(path.c_str());

        const auto uni = makeStcModel("Uni-STC", cfg);
        const RunResult r = runSpmv(*uni, bbc);
        const double spmv_ms = r.timeNs(cfg.freqGhz) / 1e6;
        const double breakeven =
            spmv_ms > 0.0 ? encode_ms / spmv_ms : 0.0;

        t.addRow({nm.name, fmtDouble(encode_ms, 2),
                  fmtDouble(reload_ms, 2),
                  fmtDouble(spmv_ms * 1000.0, 1) + " us",
                  fmtDouble(breakeven, 0)});
    }
    std::filesystem::remove_all(dir.value());
    t.print();
    std::printf("\nPaper reference: conversion comparable to a few "
                "hundred SpMV executions; eliminated entirely for "
                "reused matrices by saving/reloading the BBC "
                "image.\nNote: encode times here include this "
                "simulator's bookkeeping and run on one CPU core; "
                "the paper's 64-core figure is < 1000 ms for the "
                "full-size collection.\n");
    return 0;
}
