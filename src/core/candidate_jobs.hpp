// The MapReduce jobs behind the pipeline's candidate stages (ScalLoPS-style
// LSH banding at MapReduce scale, Sunarso et al.), and the block-job driver
// the sketch, similarity and verify jobs share:
//
//   "candidates"  map: (read_id, sketch) -> per-band (bucket_key, read_id)
//                 GROUP on bucket_key
//                 reduce: emit the bucket's deduplicated candidate pairs
//   "verify"      map: one BinaryBlock per split of the pairs' integer
//                 counts (candidates::PairScorer::counts — match counts, or
//                 |∩| and |∪|)
//                 reduce: identity; the driver scores each pair from its
//                 counts (PairScorer::score) in the candidate list's order
//
// Both drivers sort and deduplicate their outputs, so candidate sets and
// edge lists are byte-identical across thread counts, record split orders,
// fault plans that leave one live node, and scalar vs AVX2 kernels — and
// identical to the local candidates::enumerate_pairs / verify_pairs path,
// whose build_bucket_index sorts on the same band_bucket_key.  Each job
// claims a lineage stage ("candidates" / "verify") so `mrmc_doctor
// pipeline` reports them like any other pipeline stage; each runs exactly
// one job, even on empty input, so a checkpoint hit on either stage claims
// the slot the job would have used.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/candidates.hpp"
#include "core/pipeline.hpp"
#include "mr/block.hpp"
#include "mr/job.hpp"

namespace mrmc::core {

namespace detail {

/// Runs a job whose map task turns each input split into one BinaryBlock:
/// `map_split(split, emit)` builds the split's block (and may count on
/// `emit`), the block is keyed by its split index, the identity reduce
/// passes it through, and the blocks come back in split order, so block s
/// covers input records [s · config.records_per_split, ...).  Exactly one
/// job runs, even on empty input (one empty split, one block).
template <typename Record, typename MapSplit, typename MapWork>
std::vector<mr::BinaryBlock> run_block_job(const mr::JobConfig& config,
                                           const std::vector<Record>& input,
                                           const MapSplit& map_split,
                                           const MapWork& map_work,
                                           mr::JobStats& stats) {
  using BlockJob = mr::Job<Record, std::uint32_t, mr::BinaryBlock,
                           std::pair<std::uint32_t, mr::BinaryBlock>>;
  BlockJob job(
      config,
      [&map_split](std::span<const Record> split, std::size_t split_index,
                   mr::Emitter<std::uint32_t, mr::BinaryBlock>& emit) {
        mr::BinaryBlock block = map_split(split, emit);
        emit.emit(static_cast<std::uint32_t>(split_index), std::move(block));
      },
      mr::identity_reduce<std::uint32_t, mr::BinaryBlock>);
  job.with_map_work(map_work);
  auto run = job.run(input);
  stats = std::move(run.stats);

  std::vector<mr::BinaryBlock> blocks(run.output.size());
  for (auto& [split_index, block] : run.output) {
    MRMC_CHECK(split_index < blocks.size(), "one block per split");
    blocks[split_index] = std::move(block);
  }
  return blocks;
}

/// A zeroed block for `pairs` pairs of `scorer`'s counts: one column per
/// lane, each lane the narrowest width that holds max_count().  What the
/// similarity and verify map tasks ship instead of one double per pair.
[[nodiscard]] inline mr::BinaryBlock count_block(
    const candidates::PairScorer& scorer, std::uint64_t pairs) {
  return mr::BinaryBlock(mr::min_lane_bits(scorer.max_count()), pairs,
                         scorer.lanes());
}

inline void put_counts(mr::BinaryBlock& block, std::uint64_t pair,
                       const candidates::PairScorer::Counts& counts) noexcept {
  for (std::uint32_t lane = 0; lane < block.cols(); ++lane) {
    block.set(lane, pair, counts[lane]);
  }
}

[[nodiscard]] inline candidates::PairScorer::Counts get_counts(
    const mr::BinaryBlock& block, std::uint64_t pair) noexcept {
  candidates::PairScorer::Counts counts{};
  for (std::uint32_t lane = 0; lane < block.cols(); ++lane) {
    counts[lane] = block.get(lane, pair);
  }
  return counts;
}

}  // namespace detail

struct CandidateJobResult {
  std::vector<candidates::Pair> pairs;  ///< sorted by (a, b), unique
  candidates::BandShape shape;          ///< resolved ({0, 0} for < 2 reads)
  mr::JobStats stats;
};

/// Enumerate candidate pairs for the sketch table with the "candidates"
/// MapReduce job.  LSH backend only: an all-pairs shuffle would itself be
/// the O(n^2) wall this layer removes.  Fewer than two reads have no pairs
/// to propose: the job then runs on no records.
CandidateJobResult run_candidate_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const candidates::Params& params, double theta,
    const ExecutionOptions& exec);

struct VerifyJobResult {
  candidates::SparseSimilarityGraph graph;
  mr::JobStats stats;
};

/// Score candidate pairs into a sparse similarity graph via the "verify"
/// MapReduce job.  `pairs` must be sorted unique (run_candidate_job output).
/// b-bit sketches need no special case: count_equal over rows the sketch
/// stage already truncated counts exactly the b-bit matches.
VerifyJobResult run_verify_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const std::vector<candidates::Pair>& pairs, SketchEstimator estimator,
    const ExecutionOptions& exec);

}  // namespace mrmc::core
