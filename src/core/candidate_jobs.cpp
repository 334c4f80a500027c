#include "core/candidate_jobs.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"

namespace mrmc::core {

CandidateJobResult run_candidate_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const candidates::Params& params, double theta,
    const ExecutionOptions& exec) {
  MRMC_REQUIRE(params.backend == candidates::Backend::kLshBanded,
               "the candidates job enumerates LSH bucket-mates");
  CandidateJobResult result;
  const std::size_t n = sketches->rows();
  obs::pipeline::StageScope stage("candidates");
  const std::size_t sketch_size = sketches->cols();
  // Fewer than two reads resolve no shape (as build_bucket_index) and map
  // no records, so the mapper never reads `shape`.
  const candidates::BandShape shape =
      n < 2 ? candidates::BandShape{}
            : candidates::resolve_band_shape(params, sketch_size, theta);
  result.shape = shape;
  const std::uint64_t seed = params.seed;

  using BandJob = mr::Job<std::uint32_t, std::uint64_t, std::uint32_t,
                          candidates::Pair>;
  auto config = detail::job_config("candidates", exec, exec.records_per_split);

  auto& bucket_hist =
      obs::Registry::global().histogram("pipeline.candidate_bucket_size");
  BandJob job(
      config,
      [sketches, shape, seed](const std::uint32_t& id,
                              mr::Emitter<std::uint64_t, std::uint32_t>& emit) {
        const auto sketch = sketches->row(id);
        for (std::size_t band = 0; band < shape.bands; ++band) {
          emit.emit(candidates::band_bucket_key(sketch, band, shape, seed), id);
        }
        emit.count("candidates.band_entries",
                   static_cast<long>(shape.bands));
      },
      [&bucket_hist](const std::uint64_t&, std::vector<std::uint32_t>& ids,
                     std::vector<candidates::Pair>& out,
                     mr::ReduceContext& context) {
        bucket_hist.observe(static_cast<double>(ids.size()));
        if (ids.size() < 2) return;
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
          for (std::size_t j = i + 1; j < ids.size(); ++j) {
            out.emplace_back(ids[i], ids[j]);
          }
        }
        context.count("candidates.bucket_pairs",
                      static_cast<long>(ids.size() * (ids.size() - 1) / 2));
      });
  job.with_map_work([sketch_size](const std::uint32_t&) {
    return cost::compare_work(sketch_size);  // one mix per component
  });
  job.with_reduce_work([](const std::uint64_t&, std::size_t count) {
    const auto m = static_cast<double>(count);
    return m * 20e-9 + m * (m - 1.0) * 1e-9;  // sort + pair emission
  });

  std::vector<std::uint32_t> input(n < 2 ? 0 : n);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint32_t>(i);
  }
  auto run = job.run(input);
  result.stats = std::move(run.stats);

  // Cross-bucket dedup happens driver-side: the same pair may surface from
  // several bands (and reducers), so sort + unique fixes one canonical,
  // order-independent candidate set.
  result.pairs = std::move(run.output);
  std::sort(result.pairs.begin(), result.pairs.end());
  result.pairs.erase(std::unique(result.pairs.begin(), result.pairs.end()),
                     result.pairs.end());
  return result;
}

VerifyJobResult run_verify_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const std::vector<candidates::Pair>& pairs, SketchEstimator estimator,
    const ExecutionOptions& exec) {
  obs::pipeline::StageScope stage("verify");
  VerifyJobResult result;
  result.graph.num_vertices = sketches->rows();
  const std::size_t num_hashes = sketches->cols();

  // One scorer, built once and shared read-only by every map task and the
  // driver (the sketch table plays Pig's GROUP-ALL broadcast relation).
  // Instead of one ((a, b), double) record per pair, each map task ships one
  // block of the split's integer counts, and the driver scores them in
  // `pairs` order: `pairs` is sorted unique, so the edge list needs no
  // re-sort.
  const candidates::PairScorer scorer(*sketches, estimator);
  const std::size_t per_split = std::max<std::size_t>(
      exec.records_per_split,
      pairs.size() / std::max<std::size_t>(1, exec.cluster.map_slots() * 4));
  const auto blocks = detail::run_block_job(
      detail::job_config("verify", exec, per_split), pairs,
      [&scorer](std::span<const candidates::Pair> split,
                mr::Emitter<std::uint32_t, mr::BinaryBlock>& emit) {
        mr::BinaryBlock block = detail::count_block(scorer, split.size());
        for (std::size_t r = 0; r < split.size(); ++r) {
          detail::put_counts(block, r,
                             scorer.counts(split[r].first, split[r].second));
          emit.count("verify.pairs_scored");
        }
        return block;
      },
      [num_hashes](const candidates::Pair&) {
        return cost::compare_work(num_hashes);
      },
      result.stats);

  result.graph.edges.reserve(pairs.size());
  for (const mr::BinaryBlock& block : blocks) {
    for (std::uint64_t r = 0; r < block.rows(); ++r) {
      const auto [a, b] = pairs[result.graph.edges.size()];
      result.graph.edges.push_back(
          candidates::Edge{a, b, scorer.score(detail::get_counts(block, r))});
    }
  }
  return result;
}

}  // namespace mrmc::core
