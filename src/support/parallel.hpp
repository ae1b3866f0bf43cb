#pragma once

#include <omp.h>

#include <algorithm>
#include <vector>

#include "src/support/types.hpp"

/// Thin OpenMP helpers so that call sites read declaratively.
namespace rinkit {

/// Number of OpenMP threads the process will use.
inline int maxThreads() { return omp_get_max_threads(); }

/// Id of the calling OpenMP thread (0 outside parallel regions).
inline int threadId() { return omp_get_thread_num(); }

/// Parallel loop over [0, n) with static scheduling; @p f takes the index.
template <typename F>
void parallelFor(count n, F&& f) {
#pragma omp parallel for schedule(static)
    for (long long i = 0; i < static_cast<long long>(n); ++i) {
        f(static_cast<index>(i));
    }
}

/// Fixed-order reductions. Floating-point addition is not associative, so
/// an OpenMP `reduction(+)` returns bits that depend on the thread count
/// and on the order in which threads finish. These helpers cut [0, n) into
/// min(n, kReduceBlocks) contiguous blocks whose bounds depend on n only,
/// accumulate each block sequentially into its own partial, and add the
/// partials in block order — the same bits at any thread count.
inline constexpr count kReduceBlocks = 64;

/// Start of block @p b of @p blocks over [0, n).
inline index reduceBlockBegin(count n, count blocks, count b) { return n * b / blocks; }

/// Sum of f(i) over [0, n) in fixed order. @p f may also write per-index
/// state (each index is visited exactly once).
template <typename F>
double orderedSum(count n, F&& f) {
    const count blocks = std::min(n, kReduceBlocks);
    std::vector<double> partial(blocks, 0.0);
#pragma omp parallel for schedule(static)
    for (long long b = 0; b < static_cast<long long>(blocks); ++b) {
        const index end = reduceBlockBegin(n, blocks, static_cast<count>(b) + 1);
        double s = 0.0;
        for (index i = reduceBlockBegin(n, blocks, static_cast<count>(b)); i < end; ++i) {
            s += f(i);
        }
        partial[static_cast<size_t>(b)] = s;
    }
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
}

/// Adds @p body's contributions for every item i in [0, n) into
/// out[0, width) in fixed order. @p body(scratch, i, acc) adds item i's
/// contributions into acc[0, width); @p makeScratch() builds one
/// per-thread workspace (e.g. a BFS), reused across that thread's items.
/// Memory is O(min(n, kReduceBlocks) * width).
template <typename MakeScratch, typename Body>
void orderedAccumulate(count n, count width, double* out, MakeScratch&& makeScratch,
                       Body&& body) {
    const count blocks = std::min(n, kReduceBlocks);
    if (blocks == 0) return;
    std::vector<double> partial(blocks * width, 0.0);
#pragma omp parallel
    {
        auto scratch = makeScratch();
#pragma omp for schedule(dynamic, 1)
        for (long long b = 0; b < static_cast<long long>(blocks); ++b) {
            double* acc = partial.data() + static_cast<count>(b) * width;
            const index end = reduceBlockBegin(n, blocks, static_cast<count>(b) + 1);
            for (index i = reduceBlockBegin(n, blocks, static_cast<count>(b)); i < end; ++i) {
                body(scratch, i, acc);
            }
        }
    }
    for (count b = 0; b < blocks; ++b) {
        const double* acc = partial.data() + b * width;
        for (count j = 0; j < width; ++j) out[j] += acc[j];
    }
}

} // namespace rinkit
