// Greedy clustering — Algorithm 1 of the paper (MrMC-MinH^g).
//
// A read joins the first cluster representative whose sketch similarity to
// it is >= theta, or becomes a representative itself.  One loop implements
// it: a sweep over the reads in input order in which read j scores the
// earlier representatives in ascending id order.  The buckets are
// candidates::build_bucket_index's, the index enumerate_pairs expands: the
// exact backend keeps every representative in one bucket (O(N * #clusters)
// comparisons, the paper's cost); the LSH backend files each representative
// under its band buckets, so j scores only the representatives that share a
// bucket with it.  greedy_cluster_graph runs the same join rule over a
// verified candidate graph: the sweep's test oracle, and the composed
// enumerate -> verify -> greedy pass the LSH benchmarks time.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/candidates.hpp"
#include "core/minhash.hpp"

namespace mrmc::core {

struct GreedyParams {
  double theta = 0.9;  ///< similarity threshold θ
  SketchEstimator estimator = SketchEstimator::kSetBased;
};

struct GreedyResult {
  std::vector<int> labels;       ///< cluster id per input sequence, 0-based
  std::size_t num_clusters = 0;
  std::vector<std::size_t> representatives;  ///< input index anchoring each cluster
  std::size_t comparisons = 0;   ///< sketch comparisons performed
};

/// Exact Algorithm 1: the bucket sweep below with candidates::Params{}, one
/// bucket that holds every representative.  Read j scores the
/// representatives created before it, in creation order, and joins the
/// first that passes, so `comparisons` is Algorithm 1's count: each
/// representative against every read still unassigned when it was created.
GreedyResult greedy_cluster(const kernels::SketchMatrix& sketches,
                            const GreedyParams& params);

/// Algorithm 1 over a verified candidate graph instead of raw sketches: a
/// sequence only ever joins a representative it shares a graph edge with,
/// so the sweep is O(V + E) instead of O(N * #clusters) comparisons.  When
/// the graph contains every pair with similarity >= theta (always true for
/// the exact backend), labels, representatives and cluster count are
/// identical to greedy_cluster on the underlying sketches; `comparisons`
/// counts edge inspections.  `params.estimator` is unused — similarities
/// were fixed at verification time.
GreedyResult greedy_cluster_graph(const candidates::SparseSimilarityGraph& graph,
                                  const GreedyParams& params);

/// Algorithm 1 as a bucket sweep over representatives, probing the buckets
/// of candidates::build_bucket_index(sketches, lsh, band_theta, pool).
/// Under the LSH backend each read is compared only with the
/// representatives that share one of its band buckets; under the exact
/// backend (`band_theta` and `pool` unused) one bucket holds every
/// representative.  The sweep visits reads in order: read j scores the
/// earlier representatives in its buckets and joins the smallest-id one
/// with similarity >= params.theta (candidates::PairScorer arithmetic), or
/// becomes a representative and enters its buckets.  Labels,
/// representatives and cluster count are identical to
/// greedy_cluster_graph(verify_pairs(enumerate_pairs(sketches, lsh,
/// band_theta), params.estimator), params); `comparisons` counts the
/// (representative, read) pairs scored.  No candidate pair list or graph
/// is built.
GreedyResult greedy_cluster(const kernels::SketchMatrix& sketches,
                            const GreedyParams& params,
                            const candidates::Params& lsh, double band_theta,
                            common::ThreadPool* pool = nullptr);

}  // namespace mrmc::core
