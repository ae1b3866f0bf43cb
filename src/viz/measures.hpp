#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/dyn/dyn_kadabra.hpp"
#include "src/graph/csr_view.hpp"
#include "src/graph/graph.hpp"

namespace rinkit::viz {

/// The network measures the widget's measure slider offers ([R1]): the
/// centralities and community detectors of the paper's Figs. 6-8, computed
/// through one uniform interface so that the GUI (and the benches) can
/// iterate over them.
enum class Measure {
    Degree,
    Closeness,
    HarmonicCloseness,
    Betweenness,
    PageRank,
    Eigenvector,
    Katz,
    CoreNumber,
    LocalClustering,
    PlmCommunities,
    LeidenCommunities,
    MapEquationCommunities,
    PlpCommunities,
};

inline constexpr std::size_t kNumMeasures = 13;

/// All measures in menu order.
const std::vector<Measure>& allMeasures();

/// Human-readable name ("Closeness", "PLM communities", ...).
std::string measureName(Measure m);

/// True for community detectors (scores are categorical subset ids and
/// should be colored with the categorical palette).
bool isCommunityMeasure(Measure m);

/// Computes per-node scores of @p m by driving the measure's kernel
/// through its canonical `run(const CsrView&)` entry on @p view (a
/// snapshot of @p g). For community measures the score is the (compacted)
/// community id. This is the single measure-to-kernel adaptor; everything
/// that computes a measure — engine, benches, tests — goes through it.
std::vector<double> computeMeasure(const Graph& g, const CsrView& view, Measure m);

/// How far the serving layer allows a result to deviate from fresh-exact.
/// The SessionService overload ladder walks None -> Approx -> Stale:
/// "approximate with a stated error bound" is preferred over "exact but for
/// an old graph", because a bounded error on the current frame is more
/// useful than an unbounded one from the past.
enum class DegradeLevel { None, Approx, Stale };

/// How a result was actually produced — cache/recompute, sampling, or the
/// stale-serve escape hatch. Reported per request so the tier is visible in
/// span attributes, metrics, and session recordings.
enum class ResolutionTier {
    Exact,   ///< fresh exact: cache hit or full recompute
    Dynamic, ///< exact, by diff-driven repair of stored state. The engine
             ///< no longer produces it; the value stays so tierName() and
             ///< the measure_tier_* metric names are unchanged.
    Approx,  ///< sampled, with an (epsilon, delta) guarantee
    Stale,   ///< exact or approx, but for an older graph version
};

const char* tierName(ResolutionTier t);

/// The widget session's measure engine: one shared CSR snapshot plus a
/// per-measure result cache, both keyed by Graph::version(), extended with
/// sampling approximation.
///
/// Every request resolves through two tiers:
///
///  1. *Exact* — a cache hit, or computeMeasure() on the shared snapshot.
///     Switching the measure on an unchanged graph is an O(1) lookup. Exact
///     and approximate results live in separate slots keyed by (measure,
///     version, epsilon), so an exact read never serves a sampled result
///     silently, and vice versa. Exact reads hold no per-source state: the
///     parallel from-scratch kernels beat diff-driven repair at every edge
///     churn the interactive workloads produce (see DESIGN.md).
///  2. *Sampled approximation* — when the caller states an error tolerance
///     (Request::tolerance, surfaced as RinWidgetOptions::
///     measureErrorTolerance) or the serving layer degrades to
///     DegradeLevel::Approx, betweenness switches to adaptive KADABRA-style
///     sampling and closeness to pivot sampling — each reporting the
///     (epsilon, delta) actually achieved in ResultInfo. The betweenness
///     sample set itself is diff-maintained (dyn::DynKadabra, fed by
///     noteDiff() from DynamicRin's edge lists): on small diffs only the
///     sampled paths whose shortest-path DAG moved are redrawn, so a warm
///     approx read costs a fraction of a cold sampling run. Its n x n level
///     matrix is the only O(n^2) state the engine ever holds.
///
/// DegradeLevel::Stale additionally allows serving a right-sized result for
/// an older version — the last rung of the ladder, kept from the original
/// latest-wins design.
class MeasureEngine {
public:
    struct Options {
        /// Keep the sampled betweenness state (dyn::DynKadabra) alive across
        /// noteDiff()'d versions instead of resampling from scratch.
        bool dynamicMeasures = true;
        /// The sample state's level matrix is O(n^2); above this node count
        /// it is never primed.
        count dynStateMaxNodes = 1536;
        /// epsilon used when the serving layer degrades a request that did
        /// not state its own tolerance.
        double degradeEpsilon = 0.1;
        std::uint64_t seed = 1;
    };

    /// What the caller is willing to accept for this read.
    struct Request {
        /// 0 demands exact; > 0 permits sampled results whose guaranteed
        /// additive error is <= tolerance.
        double tolerance = 0.0;
        DegradeLevel degrade = DegradeLevel::None;
    };

    /// What the engine actually did — threaded into span attributes,
    /// serve::MetricsRegistry counters, and the session recorder.
    struct ResultInfo {
        ResolutionTier tier = ResolutionTier::Exact;
        double epsilon = 0.0; ///< achieved additive error bound (0 = exact)
        double delta = 0.0;   ///< failure probability of that bound
        count samples = 0;    ///< samples/pivots drawn (0 for exact tiers)
        bool cacheHit = false;
        count diffEdges = 0;  ///< diff size consumed by a warm sample update
    };

    MeasureEngine() = default;
    explicit MeasureEngine(const Options& opts) : opts_(opts) {}

    /// Scores of @p m on @p g under @p req; @p info (if non-null) reports
    /// the resolution tier and achieved bounds.
    const std::vector<double>& scores(const Graph& g, Measure m, const Request& req,
                                      ResultInfo* info = nullptr);

    /// Installs an externally computed *exact* result for @p m at @p g's
    /// current version into the exact cache slot — the speculative
    /// precompute adoption hook. The caller guarantees @p scores equals
    /// what an exact recompute on @p g would produce (the speculation ran
    /// computeMeasure on an identical edge set); the next scores() read at
    /// this version is then an O(1) cached-exact hit.
    void storeExact(const Graph& g, Measure m, std::vector<double> scores);

    /// Feeds the engine the edge diff that moved @p g from @p fromVersion
    /// to its current version (DynamicRin::lastAdded/lastRemoved). Diffs
    /// compose across calls; a version gap invalidates the sample state
    /// (the next tolerant betweenness read re-primes it).
    void noteDiff(const Graph& g, std::uint64_t fromVersion,
                  const std::vector<std::pair<node, node>>& added,
                  const std::vector<std::pair<node, node>>& removed);

    /// Drops the maintained sample state (graph rebuilt / diff unavailable).
    void invalidateDynamic();

    /// Drops the snapshot, every cached result, and the sample state.
    void reset();

    const Options& options() const { return opts_; }

private:
    struct Slot {
        std::vector<double> scores;
        std::uint64_t version = 0;
        const Graph* g = nullptr;
        bool valid = false;
        double eps = 0.0;   ///< guaranteed additive error (0 = exact)
        double delta = 0.0;
        count samples = 0;
    };

    /// Diff chain of the maintained sample set (dynKad_ stores the samples
    /// and the level matrix).
    struct Chain {
        bool hasPending = false;  ///< pending diff leads dynKad_ -> target
        std::uint64_t target = 0; ///< version the pending diff produces
        std::vector<std::pair<node, node>> pendAdd, pendRem;
        count n = 0;              ///< node count dynKad_ was primed on
        double ewmaDyn = -1.0;    ///< EWMA of warm update cost (ms)
        double ewmaExact = -1.0;  ///< EWMA of cold prime cost (ms)

        void dropPending();
    };

    bool sampleUpdateEligible(const Graph& g) const;

    Options opts_{};
    CsrSnapshot snapshot_;
    std::array<Slot, kNumMeasures> exact_{};
    std::array<Slot, kNumMeasures> approx_{};

    dyn::DynKadabra dynKad_;
    Chain chain_;
};

} // namespace rinkit::viz
