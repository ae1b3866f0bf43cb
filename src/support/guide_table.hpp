#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "src/support/types.hpp"

namespace rinkit {

/// Exact indexed search (Chen & Asau's guide table) over a nondecreasing
/// cumulative distribution.
///
/// `lowerBound(x)` returns exactly `std::lower_bound(cdf, x) - cdf.begin()`
/// for every non-NaN x, including x = 0, x equal to a cdf value and cdf
/// plateaus. [0, total) is cut into one equal bin per cdf entry; each bin
/// stores its left edge and `lower_bound(cdf, edge)`. A query maps x to a
/// bin, corrects the bin against the stored edges (so float rounding in the
/// mapping cannot misplace it), then scans forward from the bin's stored
/// index. Since edge <= x < next edge, the answer lies between the two
/// stored indices, and on near-uniform weights the scan touches one or two
/// entries instead of the ~log2(n) mispredicted branches of a binary search.
class CdfGuideTable {
public:
    explicit CdfGuideTable(std::vector<double> cdf) : cdf_(std::move(cdf)) {
        const count n = cdf_.size();
        const double total = n > 0 ? cdf_.back() : 0.0;
        bins_ = total > 0.0 ? n : 1;
        scale_ = total > 0.0 ? static_cast<double>(bins_) / total : 0.0;
        // edge_[0] = -inf, so every x lands in exactly one bin
        // [edge_[b], edge_[b + 1]), the last bin reaching to +inf.
        edge_.resize(bins_);
        start_.resize(bins_ + 1);
        edge_[0] = -std::numeric_limits<double>::infinity();
        for (count b = 1; b < bins_; ++b)
            edge_[b] = static_cast<double>(b) * (total / static_cast<double>(bins_));
        for (count b = 0; b < bins_; ++b)
            start_[b] = static_cast<index>(
                std::lower_bound(cdf_.begin(), cdf_.end(), edge_[b]) - cdf_.begin());
        start_[bins_] = n;
    }

    /// First index i with cdf[i] >= x (cdf.size() if none). x must not be NaN.
    index lowerBound(double x) const {
        const double f = x * scale_;
        count b = f < static_cast<double>(bins_) ? (f > 0.0 ? static_cast<count>(f) : 0)
                                                 : bins_ - 1;
        while (x < edge_[b]) --b;
        while (b + 1 < bins_ && x >= edge_[b + 1]) ++b;
        index i = start_[b];
        const index end = start_[b + 1];
        while (i < end && cdf_[i] < x) ++i;
        return i;
    }

private:
    std::vector<double> cdf_;
    std::vector<double> edge_;
    std::vector<index> start_;
    count bins_ = 1;
    double scale_ = 0.0;
};

} // namespace rinkit
