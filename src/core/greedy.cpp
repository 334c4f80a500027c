#include "core/greedy.hpp"

#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace mrmc::core {

GreedyResult greedy_cluster(const kernels::SketchMatrix& sketches,
                            const GreedyParams& params) {
  return greedy_cluster(sketches, params, candidates::Params{}, params.theta);
}

GreedyResult greedy_cluster_graph(const candidates::SparseSimilarityGraph& graph,
                                  const GreedyParams& params) {
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  const std::size_t n = graph.num_vertices;
  GreedyResult result;
  result.labels.assign(n, -1);
  if (n == 0) return result;

  // CSR adjacency over both edge directions.  Edges arrive sorted by
  // (a, b) with a < b, so each vertex's neighbor list comes out ascending:
  // smaller neighbors (as edge targets) land before larger ones (as edge
  // sources).
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const auto& edge : graph.edges) {
    MRMC_REQUIRE(edge.a < edge.b && edge.b < n, "graph edge out of range");
    ++offsets[edge.a + 1];
    ++offsets[edge.b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::pair<std::uint32_t, double>> adjacency(offsets[n]);
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& edge : graph.edges) {
      adjacency[cursor[edge.a]++] = {edge.b, edge.similarity};
      adjacency[cursor[edge.b]++] = {edge.a, edge.similarity};
    }
  }

  // Algorithm 1 from the representatives' side: by the time index i is
  // reached every j < i is already assigned (absorbed earlier or a
  // representative itself), so a new representative i only needs to test
  // its *graph neighbors* j > i that are still unassigned.
  int next_label = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.labels[i] >= 0) continue;
    const int label = next_label++;
    result.labels[i] = label;
    result.representatives.push_back(i);
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const auto [neighbor, similarity] = adjacency[e];
      if (neighbor < i || result.labels[neighbor] >= 0) continue;
      ++result.comparisons;
      if (similarity >= params.theta) result.labels[neighbor] = label;
    }
  }
  result.num_clusters = static_cast<std::size_t>(next_label);
  return result;
}

GreedyResult greedy_cluster(const kernels::SketchMatrix& sketches,
                            const GreedyParams& params,
                            const candidates::Params& lsh, double band_theta,
                            common::ThreadPool* pool) {
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  const std::size_t n = sketches.rows();
  GreedyResult result;
  result.labels.assign(n, -1);
  const candidates::BucketIndex index =
      candidates::build_bucket_index(sketches, lsh, band_theta, pool);
  const std::size_t bands = index.bands;

  // The sweep.  Representatives enter their buckets in id order, so each
  // bucket's list ascends and a walk stops at the first id >= the best
  // (smallest passing) representative found so far; stamp[r] == j marks r
  // as already scored for read j.  Every representative is < j, and j joins
  // the smallest-id bucket-mate representative r with similarity >= θ —
  // the label greedy_cluster_graph gives j over the verified graph.  With
  // one bucket, j scores exactly the representatives created before it, in
  // creation order: Algorithm 1's comparisons, one read at a time.
  const candidates::PairScorer similarity(sketches, params.estimator);
  // Bucket b stores its representatives in reps[start[b] .. start[b] +
  // filled[b]), room for its whole slot run.
  std::vector<std::uint32_t> reps(index.bucket_of.size());
  std::vector<std::uint32_t> filled(index.num_buckets(), 0);
  std::vector<std::uint32_t> stamp(n, std::numeric_limits<std::uint32_t>::max());
  int next_label = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t* own = index.bucket_of.data() + j * bands;
    std::size_t best = j;
    for (std::size_t band = 0; band < bands; ++band) {
      const std::uint32_t bucket = own[band];
      const std::uint32_t* members = reps.data() + index.start[bucket];
      for (std::uint32_t k = 0; k < filled[bucket]; ++k) {
        const std::uint32_t r = members[k];
        if (r >= best) break;
        if (stamp[r] == j) continue;
        stamp[r] = static_cast<std::uint32_t>(j);
        ++result.comparisons;
        if (similarity(r, j) >= params.theta) {
          best = r;
          break;
        }
      }
    }
    if (best < j) {
      result.labels[j] = result.labels[best];
      continue;
    }
    result.labels[j] = next_label++;
    result.representatives.push_back(j);
    for (std::size_t band = 0; band < bands; ++band) {
      const std::uint32_t bucket = own[band];
      std::uint32_t* members = reps.data() + index.start[bucket];
      // Two bands of j sharing a key share a bucket: enter it once.
      if (filled[bucket] == 0 || members[filled[bucket] - 1] != j) {
        members[filled[bucket]++] = static_cast<std::uint32_t>(j);
      }
    }
  }
  result.num_clusters = static_cast<std::size_t>(next_label);
  return result;
}

}  // namespace mrmc::core
