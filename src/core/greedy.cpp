#include "core/greedy.hpp"

#include <algorithm>
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
  const bool exact = lsh.backend == candidates::Backend::kExactAllPairs;
  // The exact backend is one band whose single bucket holds every
  // representative.  LSH: fewer than two reads have no bucket-mates
  // (enumerate_pairs returns no pairs without resolving a shape), so zero
  // bands makes every read a singleton representative.
  const candidates::BandShape shape =
      exact ? candidates::BandShape{1, sketches.cols()}
      : n < 2
          ? candidates::BandShape{}
          : candidates::resolve_band_shape(lsh, sketches.cols(), band_theta);
  const std::size_t bands = shape.bands;
  const std::size_t slots = n * bands;
  MRMC_REQUIRE(slots < std::numeric_limits<std::uint32_t>::max(),
               "too many (read, band) entries for 32-bit bucket ids");

  // Bucket ids.  bucket_of[read·bands + band] is that slot's dense bucket
  // id; bucket b later stores its representatives in
  // reps[start[b] .. start[b] + filled[b]), room for its whole run.
  std::vector<std::uint32_t> bucket_of(slots, 0);
  std::vector<std::uint32_t> start;
  if (exact) {
    if (n > 0) start.push_back(0);
  } else {
    // One (key, slot) entry per slot, sorted so each bucket is a contiguous
    // run of equal keys — the runs lsh_pairs turns into pairs (a key
    // repeated across bands is one bucket there too).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> entries(slots);
    auto fill_row = [&](std::size_t i) {
      const auto sketch = sketches.row(i);
      for (std::size_t band = 0; band < bands; ++band) {
        const std::size_t slot = i * bands + band;
        entries[slot] = {candidates::band_bucket_key(sketch, band, shape,
                                                     lsh.seed),
                         static_cast<std::uint32_t>(slot)};
      }
    };
    if (pool != nullptr) {
      pool->parallel_for(n, fill_row);
    } else {
      for (std::size_t i = 0; i < n; ++i) fill_row(i);
    }
    std::sort(entries.begin(), entries.end());
    for (std::size_t lo = 0; lo < slots; ++lo) {
      if (lo == 0 || entries[lo].first != entries[lo - 1].first) {
        start.push_back(static_cast<std::uint32_t>(lo));
      }
      bucket_of[entries[lo].second] =
          static_cast<std::uint32_t>(start.size() - 1);
    }
  }

  // The sweep.  Representatives enter their buckets in id order, so each
  // bucket's list ascends and a walk stops at the first id >= the best
  // (smallest passing) representative found so far; stamp[r] == j marks r
  // as already scored for read j.  Every representative is < j, and j joins
  // the smallest-id bucket-mate representative r with similarity >= θ —
  // the label greedy_cluster_graph gives j over the verified graph.  With
  // one bucket, j scores exactly the representatives created before it, in
  // creation order: Algorithm 1's comparisons, one read at a time.
  const candidates::PairScorer similarity(sketches, params.estimator);
  std::vector<std::uint32_t> reps(slots);
  std::vector<std::uint32_t> filled(start.size(), 0);
  std::vector<std::uint32_t> stamp(n, std::numeric_limits<std::uint32_t>::max());
  int next_label = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t* own = bucket_of.data() + j * bands;
    std::size_t best = j;
    for (std::size_t band = 0; band < bands; ++band) {
      const std::uint32_t bucket = own[band];
      const std::uint32_t* members = reps.data() + start[bucket];
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
      std::uint32_t* members = reps.data() + start[bucket];
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
