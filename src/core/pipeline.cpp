#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/candidate_jobs.hpp"
#include "core/kernels.hpp"
#include "mr/bytes.hpp"
#include "mr/runtime.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"

namespace mrmc::core {

namespace detail {

mr::JobConfig job_config(const std::string& name, const ExecutionOptions& exec,
                         std::size_t records_per_split) {
  mr::JobConfig config;
  config.name = name;
  config.num_reducers = std::max<std::size_t>(1, exec.cluster.reduce_slots());
  config.records_per_split = records_per_split;
  config.threads = exec.threads;
  config.isolated_pool = exec.isolated_pool;
  config.fault_plan = exec.fault_plan;
  config.cluster = exec.cluster;
  config.heartbeat_interval_s = exec.heartbeat_interval_s;
  return config;
}

}  // namespace detail

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::kGreedy: return "greedy";
    case Mode::kHierarchical: return "hierarchical";
  }
  return "?";
}

namespace cost {

// Calibrated to an EMR M1 Large-class node (cpu_rate = 1 work unit / sim
// second): ~25 ns per k-mer x hash-function evaluation, ~1.5 ns per sketch
// component comparison, ~40 ns per dendrogram matrix cell.
double sketch_work(std::size_t length, std::size_t num_hashes) noexcept {
  return static_cast<double>(length) * static_cast<double>(num_hashes) * 25e-9;
}
double compare_work(std::size_t num_hashes) noexcept {
  return static_cast<double>(num_hashes) * 1.5e-9;
}
double dendrogram_work(std::size_t n) noexcept {
  return static_cast<double>(n) * static_cast<double>(n) * 40e-9;
}
double sketch_bytes(std::size_t num_hashes) noexcept {
  return static_cast<double>(num_hashes) * 8.0 + 8.0;
}
double packed_sketch_bytes(std::size_t num_hashes, std::size_t bits) noexcept {
  return static_cast<double>((num_hashes * bits + 63) / 64) * 8.0;
}

}  // namespace cost

namespace {

struct IndexedRead {
  std::uint32_t index = 0;
  std::string seq;
};

/// The {θ, estimator} pair the run's clustering mode actually runs with.
/// At b = 64 it is the user's pair verbatim.  Below 64, the estimator falls
/// back to component-match (set semantics over truncated values are
/// unsound) and every θ comparison moves to θ' = θ·(1-C) + C — the affine
/// b-bit correction folded into the threshold, which is decision-identical
/// to correcting each estimate (and commutes with average linkage).  LSH
/// band *shape* selection keeps the original θ: truncation only increases
/// collision probability, so a shape tuned for J ≥ θ keeps its recall floor.
struct EffectiveKnobs {
  double theta = 0.0;
  SketchEstimator estimator = SketchEstimator::kComponentMatch;
};

/// A set-based estimator forced onto the component-match scale must carry
/// its threshold across too (same m-decision, see
/// set_based_equivalent_threshold); only then does the b-bit θ' adjustment
/// apply.  Keeping the set-based θ verbatim would move the operating point
/// from m/K = 2θ/(1+θ) down to m/K = θ and over-merge everything.
double forced_component_threshold(double theta, SketchEstimator was,
                                  std::size_t bits) noexcept {
  const double component = was == SketchEstimator::kSetBased
                               ? set_based_equivalent_threshold(theta)
                               : theta;
  return bbit_adjusted_threshold(component, bits);
}

EffectiveKnobs effective_knobs(const PipelineParams& params) noexcept {
  const SketchEstimator estimator = params.mode == Mode::kGreedy
                                        ? params.greedy_estimator
                                        : params.estimator;
  if (params.sketch_bits >= 64) return {params.theta, estimator};
  return {forced_component_threshold(params.theta, estimator,
                                     params.sketch_bits),
          SketchEstimator::kComponentMatch};
}

/// The sketch stage's computation, shared by both executors: the batched
/// kernel over `seqs`, then the b-bit truncation (a no-op at b = 64), so
/// local and distributed runs score identical values at any b.
kernels::SketchMatrix sketch_seqs(const MinHasher& hasher,
                                  std::span<const std::string_view> seqs,
                                  std::size_t bits, common::ThreadPool* pool) {
  kernels::SketchMatrix sketches = hasher.sketch_matrix(seqs, pool);
  if (bits < 64) kernels::mask_components(sketches, sketch_bits_mask(bits));
  return sketches;
}

/// In-process sketch stage: every read at once, on `pool`.
kernels::SketchMatrix sketch_reads(std::span<const bio::FastaRecord> reads,
                                   const PipelineParams& params,
                                   common::ThreadPool* pool) {
  std::vector<std::string_view> seqs;
  seqs.reserve(reads.size());
  for (const auto& read : reads) seqs.emplace_back(read.seq);
  return sketch_seqs(MinHasher(params.minhash), seqs, params.sketch_bits,
                     pool);
}

/// Job 1: sketch every read.  Each map task runs sketch_seqs over its split
/// and emits ONE BinaryBlock — K rows × (reads in split) columns of b-bit
/// packed minima — instead of one vector<uint64_t> per read, so the shuffle
/// moves the exact packed bytes (64/b-fold less at b < 64, and no
/// per-record vector header even at b = 64).
kernels::SketchMatrix run_sketch_job(std::span<const bio::FastaRecord> reads,
                                     const PipelineParams& params,
                                     const ExecutionOptions& exec,
                                     mr::JobStats& stats) {
  obs::pipeline::StageScope stage("sketch");
  const MinHasher hasher(params.minhash);
  const std::size_t num_hashes = params.minhash.num_hashes;
  const std::size_t bits = params.sketch_bits;

  auto& sketch_bytes_hist =
      obs::Registry::global().histogram("pipeline.sketch_bytes");
  auto& sketch_minima_hist =
      obs::Registry::global().histogram("pipeline.sketch_distinct_minima");
  const double column_bytes = cost::packed_sketch_bytes(num_hashes, bits);

  std::vector<IndexedRead> input;
  input.reserve(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    input.push_back({static_cast<std::uint32_t>(i), reads[i].seq});
  }

  const auto blocks = detail::run_block_job(
      detail::job_config("sketch", exec, exec.records_per_split), input,
      [&](std::span<const IndexedRead> split,
          mr::Emitter<std::uint32_t, mr::BinaryBlock>& emit) {
        std::vector<std::string_view> seqs;
        seqs.reserve(split.size());
        for (const IndexedRead& read : split) seqs.emplace_back(read.seq);
        const kernels::SketchMatrix sketched =
            sketch_seqs(hasher, seqs, bits, nullptr);
        mr::BinaryBlock block(static_cast<std::uint32_t>(bits), num_hashes,
                              static_cast<std::uint32_t>(split.size()));
        thread_local std::vector<std::uint64_t> scratch;
        for (std::size_t c = 0; c < split.size(); ++c) {
          const auto sketch = sketched.row(c);
          for (std::size_t k = 0; k < num_hashes; ++k) {
            block.set(static_cast<std::uint32_t>(c), k, sketch[k]);
          }
          sketch_bytes_hist.observe(column_bytes);
          sketch_minima_hist.observe(
              static_cast<double>(kernels::count_distinct(sketch, scratch)));
          emit.count("reads.sketched");
        }
        return block;
      },
      [num_hashes](const IndexedRead& read) {
        return cost::sketch_work(read.seq.size(), num_hashes);
      },
      stats);

  // Block s holds reads [s · records_per_split, ...), one per column.
  kernels::SketchMatrix sketches(reads.size(), num_hashes);
  std::size_t next = 0;
  for (const mr::BinaryBlock& block : blocks) {
    for (std::uint32_t c = 0; c < block.cols(); ++c) {
      const auto row = sketches.row(next++);
      for (std::size_t k = 0; k < num_hashes; ++k) row[k] = block.get(c, k);
    }
  }
  return sketches;
}

/// Job 2: all-pairs similarity, map tasks own contiguous row ranges (the
/// paper's row-wise partition).  The sketch table plays the role of Pig's
/// GROUP-ALL broadcast relation.  Instead of a vector<float> per row, each
/// map task ships ONE BinaryBlock per split of candidates::PairScorer
/// counts — one match-count lane per pair (width 8/16/32 bits, whatever
/// holds K), or two lanes |∩|, |∪| set-based — and the driver scores them
/// with the same PairScorer, so its floats are the mapper's.  A pair costs
/// one packed lane instead of a 4-byte float (≥ 4× fewer shuffle bytes at
/// K ≤ 255).
SimilarityMatrix run_similarity_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const PipelineParams& params, const EffectiveKnobs& knobs,
    const ExecutionOptions& exec, mr::JobStats& stats) {
  obs::pipeline::StageScope stage("similarity");
  const std::size_t n = sketches->rows();
  const std::size_t num_hashes = params.minhash.num_hashes;

  // One scorer shared read-only by every map task and the driver; set-based
  // pre-sorts each sketch once instead of two copies per pair.
  const candidates::PairScorer scorer(*sketches, knobs.estimator);

  // Per-row fan-out: how many of the row's pairs clear theta — the density
  // signal that decides whether sparse clustering would pay off.
  auto& fanout_hist =
      obs::Registry::global().histogram("pipeline.similarity_fanout");
  const auto theta = static_cast<float>(knobs.theta);

  std::vector<std::uint32_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = static_cast<std::uint32_t>(i);

  const std::size_t per_split = std::max<std::size_t>(
      1, n / std::max<std::size_t>(1, exec.cluster.map_slots() * 4));
  const auto blocks = detail::run_block_job(
      detail::job_config("similarity", exec, per_split), rows,
      [&scorer, n, theta, &fanout_hist](
          std::span<const std::uint32_t> split,
          mr::Emitter<std::uint32_t, mr::BinaryBlock>& emit) {
        // One lane per pair: row r contributes n - r - 1, upper triangle in
        // row order (the driver knows the lengths).
        std::uint64_t total = 0;
        for (const std::uint32_t row : split) total += n - row - 1;
        mr::BinaryBlock block = detail::count_block(scorer, total);
        std::uint64_t lane = 0;
        for (const std::uint32_t row : split) {
          std::size_t fanout = 0;
          for (std::size_t j = row + 1; j < n; ++j) {
            const auto counts = scorer.counts(row, j);
            detail::put_counts(block, lane++, counts);
            if (static_cast<float>(scorer.score(counts)) >= theta) ++fanout;
          }
          fanout_hist.observe(static_cast<double>(fanout));
          emit.count("matrix.rows");
        }
        return block;
      },
      [n, num_hashes](const std::uint32_t& row) {
        return static_cast<double>(n - row - 1) *
               cost::compare_work(num_hashes);
      },
      stats);

  // Block s starts at row s · per_split; its lanes follow the mapper's
  // (row, j) order.
  SimilarityMatrix matrix(n, 0.0F);
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    std::uint64_t lane = 0;
    for (std::size_t row = s * per_split;
         row < std::min((s + 1) * per_split, n); ++row) {
      matrix.set(row, row, 1.0F);
      for (std::size_t j = row + 1; j < n; ++j) {
        const auto counts = detail::get_counts(blocks[s], lane++);
        matrix.set(row, j, static_cast<float>(scorer.score(counts)));
      }
    }
  }
  return matrix;
}

/// The whole-input cluster step: returns the labels and records named
/// counters, which the executor reports — into obs::Registry in-process,
/// through the reducer's ReduceContext in the job — under the same names.
using ClusterStep = std::function<std::vector<int>(mr::Counters&)>;

std::vector<int> run_cluster_inline(const ClusterStep& cluster) {
  mr::Counters counters;
  std::vector<int> labels = cluster(counters);
  for (const auto& [name, delta] : counters) {
    obs::Registry::global().counter(name).add(delta);
  }
  return labels;
}

/// Job 3: GROUP ALL -> one reducer runs the whole-input cluster step
/// (Algorithm 3, steps 8-9): Algorithm 1's greedy sweep, or the dendrogram
/// build + θ-cut.  `cluster` is the exact closure the local executor calls
/// inline; the job only changes where it runs and what it costs.
/// `reduce_work` is read after the reducer ran, so it may depend on what
/// the cluster step did.
std::vector<int> run_cluster_job(
    const std::string& name, std::size_t n, const ClusterStep& cluster,
    const std::function<double()>& reduce_work, std::size_t records_per_split,
    const ExecutionOptions& exec, mr::JobStats& stats) {
  obs::pipeline::StageScope stage(name);
  using ClusterJob = mr::Job<std::uint32_t, int, std::uint32_t,
                             std::pair<std::uint32_t, int>>;
  mr::JobConfig config = detail::job_config(name, exec, records_per_split);
  config.num_reducers = 1;  // GROUP ALL semantics

  ClusterJob job(
      config,
      [](const std::uint32_t& index, mr::Emitter<int, std::uint32_t>& emit) {
        emit.emit(0, index);
      },
      [&cluster](const int&, std::vector<std::uint32_t>& indices,
                 std::vector<std::pair<std::uint32_t, int>>& out,
                 mr::ReduceContext& context) {
        mr::Counters counters;
        const std::vector<int> labels = cluster(counters);
        std::sort(indices.begin(), indices.end());
        for (const std::uint32_t index : indices) {
          out.emplace_back(index, labels[index]);
        }
        context.count("clusters.formed",
                      static_cast<long>(count_clusters(labels)));
        for (const auto& [counter, delta] : counters) {
          context.count(counter, delta);
        }
      });
  job.with_map_work([](const std::uint32_t&) { return 1e-7; });  // emit only
  job.with_reduce_work(
      [&reduce_work](const int&, std::size_t) { return reduce_work(); });

  std::vector<std::uint32_t> input(n);
  for (std::size_t i = 0; i < n; ++i) input[i] = static_cast<std::uint32_t>(i);
  auto result = job.run(input);
  stats = std::move(result.stats);

  std::vector<int> labels(n, -1);
  for (const auto& [index, label] : result.output) labels[index] = label;
  return labels;
}

// ------------------------------------------------ checkpoint serialization
// Stage results as mr::recovery checkpoint payloads.  Every encoder is an
// exact byte function of its value (no floats printed, no maps iterated in
// unstable order), so a deterministic recompute reproduces the identical
// payload — the property that keeps downstream checkpoints valid after an
// upstream invalidation.

/// Layout: u64 rows, then per row u64 K followed by its K components.
void encode_sketches(mr::recovery::PayloadWriter& writer,
                     const kernels::SketchMatrix& sketches) {
  writer.u64(sketches.rows());
  for (std::size_t i = 0; i < sketches.rows(); ++i) {
    writer.u64(sketches.cols());
    for (const std::uint64_t component : sketches.row(i)) writer.u64(component);
  }
}

kernels::SketchMatrix decode_sketches(mr::recovery::PayloadReader& reader) {
  const std::size_t rows = reader.count(8);
  kernels::SketchMatrix sketches;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t cols = reader.count(8);
    if (i == 0) {
      // Every later row holds its cols field and cols components.
      reader.fits(rows - 1, 8 * (cols + 1));
      sketches = kernels::SketchMatrix(rows, cols);
    }
    // A ragged payload cannot be a sketch table: treat it as corrupt.
    if (cols != sketches.cols()) throw common::Error("ragged sketch payload");
    for (std::uint64_t& component : sketches.row(i)) component = reader.u64();
  }
  return sketches;
}

void encode_labels(mr::recovery::PayloadWriter& writer,
                   const std::vector<int>& labels) {
  writer.u64(labels.size());
  for (const int label : labels) writer.i64(label);
}

std::vector<int> decode_labels(mr::recovery::PayloadReader& reader) {
  std::vector<int> labels(reader.count(8));
  for (int& label : labels) label = static_cast<int>(reader.i64());
  return labels;
}

void encode_candidates(mr::recovery::PayloadWriter& writer,
                       const CandidateJobResult& candidates) {
  writer.u64(candidates.shape.bands);
  writer.u64(candidates.shape.rows);
  writer.u64(candidates.pairs.size());
  for (const auto& [a, b] : candidates.pairs) {
    writer.u32(a);
    writer.u32(b);
  }
}

CandidateJobResult decode_candidates(mr::recovery::PayloadReader& reader) {
  CandidateJobResult candidates;  // stats stay empty: the job never ran
  candidates.shape.bands = reader.u64();
  candidates.shape.rows = reader.u64();
  candidates.pairs.resize(reader.count(8));
  for (auto& [a, b] : candidates.pairs) {
    a = reader.u32();
    b = reader.u32();
  }
  return candidates;
}

void encode_graph(mr::recovery::PayloadWriter& writer,
                  const candidates::SparseSimilarityGraph& graph) {
  writer.u64(graph.num_vertices);
  writer.u64(graph.edges.size());
  for (const candidates::Edge& edge : graph.edges) {
    writer.u32(edge.a);
    writer.u32(edge.b);
    writer.f64(edge.similarity);
  }
}

candidates::SparseSimilarityGraph decode_graph(
    mr::recovery::PayloadReader& reader) {
  candidates::SparseSimilarityGraph graph;
  graph.num_vertices = reader.u64();
  graph.edges.resize(reader.count(16));
  for (candidates::Edge& edge : graph.edges) {
    edge.a = reader.u32();
    edge.b = reader.u32();
    edge.similarity = reader.f64();
  }
  return graph;
}

void encode_matrix(mr::recovery::PayloadWriter& writer,
                   const SimilarityMatrix& matrix) {
  const std::size_t n = matrix.size();
  writer.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const float value : matrix.row(i)) writer.f32(value);
  }
}

SimilarityMatrix decode_matrix(mr::recovery::PayloadReader& reader) {
  const std::size_t n = reader.count(4);
  reader.fits(n, 4 * n);  // n rows of n floats
  SimilarityMatrix matrix(n, 0.0F);
  float* data = matrix.mutable_data();
  for (std::size_t i = 0; i < n * n; ++i) data[i] = reader.f32();
  return matrix;
}

// ------------------------------------------------------------ fingerprints

/// Every knob that can change any stage's output enters the params
/// fingerprint; changing one invalidates the whole checkpoint chain.
std::uint64_t params_fingerprint(const PipelineParams& params) {
  mr::StableHasher hasher;
  mr::stable_hash_append(hasher, params.minhash.kmer);
  mr::stable_hash_append(hasher, params.minhash.num_hashes);
  mr::stable_hash_append(hasher, params.minhash.canonical);
  mr::stable_hash_append(hasher, params.minhash.seed);
  mr::stable_hash_append(hasher, params.minhash.modulus);
  mr::stable_hash_append(hasher, static_cast<int>(params.minhash.scheme));
  mr::stable_hash_append(hasher, params.sketch_bits);
  mr::stable_hash_append(hasher, static_cast<int>(params.mode));
  mr::stable_hash_append(hasher, params.theta);
  mr::stable_hash_append(hasher, static_cast<int>(params.linkage));
  mr::stable_hash_append(hasher, static_cast<int>(params.estimator));
  mr::stable_hash_append(hasher, static_cast<int>(params.greedy_estimator));
  mr::stable_hash_append(hasher,
                         static_cast<int>(params.candidates.backend));
  mr::stable_hash_append(hasher, params.candidates.bands);
  mr::stable_hash_append(hasher, params.candidates.target_recall);
  mr::stable_hash_append(hasher, params.candidates.seed);
  return hasher.finish();
}

std::uint64_t input_fingerprint(std::span<const bio::FastaRecord> reads) {
  mr::StableHasher hasher;
  mr::stable_hash_append(hasher, static_cast<std::uint64_t>(reads.size()));
  for (const bio::FastaRecord& read : reads) {
    mr::stable_hash_append(hasher, read.id);
    mr::stable_hash_append(hasher, read.seq);
  }
  return hasher.finish();
}

// ---------------------------------------------------------- the stage list

/// Whether a stage of the LSH backend that exhausted its retries may
/// degrade to its exact counterpart (ExecutionOptions::lsh_fallback_max_reads).
bool lsh_fallback_allowed(const ExecutionOptions& exec, std::size_t reads) {
  return exec.lsh_fallback_max_reads != 0 &&
         reads <= exec.lsh_fallback_max_reads;
}

void note_lsh_fallback(mr::recovery::StageDriver& driver,
                       const std::string& stage, const char* to,
                       std::size_t reads,
                       const mr::recovery::RetryExhausted& error) {
  driver.record_lsh_fallback(stage);
  static const obs::Logger logger("core.pipeline");
  logger.warn(stage + " stage degraded to " + to,
              {{"reads", reads},
               {"attempts", error.history().size()},
               {"error", error.what()}});
}

/// The LSH-banded front half of hierarchical mode: candidates -> verify.
/// The "candidates" stage is the job when distributed,
/// candidates::enumerate_pairs in-process; both leave the same pairs and
/// band shape.  Returns the verified graph (the candidate pairs die with
/// this frame, before any cluster stage), or nothing once an exhausted
/// candidates stage degrades to the exact backend's similarity stage.
std::optional<candidates::SparseSimilarityGraph> run_candidate_stages(
    const std::shared_ptr<const kernels::SketchMatrix>& sketches,
    const PipelineParams& params, const EffectiveKnobs& knobs,
    const ExecutionOptions& exec, common::ThreadPool* pool,
    mr::recovery::StageDriver& driver, PipelineResult& result) {
  CandidateJobResult enumerated;
  try {
    // Band-shape selection keeps the ORIGINAL theta (see EffectiveKnobs).
    enumerated = driver.run_stage(
        "candidates",
        [&] {
          if (exec.distributed) {
            return run_candidate_job(sketches, params.candidates,
                                     params.theta, exec);
          }
          CandidateJobResult local;
          local.pairs = candidates::enumerate_pairs(
              *sketches, params.candidates, params.theta, pool);
          if (sketches->rows() >= 2) {
            local.shape = candidates::resolve_band_shape(
                params.candidates, sketches->cols(), params.theta);
          }
          return local;
        },
        encode_candidates, decode_candidates);
  } catch (const mr::recovery::RetryExhausted& error) {
    const std::size_t num_reads = sketches->rows();
    if (!lsh_fallback_allowed(exec, num_reads)) throw;
    // Graceful degradation: banded enumeration keeps failing, but the input
    // is small enough for the exact backend's similarity stage — every pair
    // scored at O(n^2) cost, and the exact run's labels.
    note_lsh_fallback(driver, "candidates", "exact similarity", num_reads,
                      error);
    return std::nullopt;
  }
  result.candidate_stats = std::move(enumerated.stats);
  result.sim_total_s += result.candidate_stats.timeline.total_s;

  candidates::SparseSimilarityGraph graph = driver.run_stage(
      "verify",
      [&] {
        if (!exec.distributed) {
          return candidates::verify_pairs(*sketches, enumerated.pairs,
                                          knobs.estimator, pool);
        }
        auto verified =
            run_verify_job(sketches, enumerated.pairs, knobs.estimator, exec);
        result.verify_stats = std::move(verified.stats);
        return std::move(verified.graph);
      },
      encode_graph, decode_graph);
  result.sim_total_s += result.verify_stats.timeline.total_s;
  return graph;
}

/// The pipeline as one list of recovery-driver stages, run by both
/// executors: sketch -> {similarity | candidates -> verify}? -> cluster
/// (greedy goes straight from sketch to its cluster sweep).  Every
/// stage computes `exec.distributed ? <its MapReduce job> : <the
/// in-process core call>`; both produce identical values (and therefore
/// identical checkpoint payloads).  Stage names are the lineage stage
/// names; each checkpointed stage runs exactly one MapReduce job when
/// computed distributed, so a checkpoint hit claims the job's lineage slot
/// and downstream sequence numbers match an uninterrupted run.
void run_pipeline_stages(std::span<const bio::FastaRecord> reads,
                         const PipelineParams& params,
                         const ExecutionOptions& exec,
                         mr::recovery::StageDriver& driver,
                         PipelineResult& result) {
  const EffectiveKnobs knobs = effective_knobs(params);
  const std::size_t n = reads.size();
  // Degraded-cluster policy: a plan stranding every node would fail the
  // first job's validation; a checkpointing driver parks for resume instead
  // (an operator repairs the plan/cluster, re-runs, completed stages hit).
  if (exec.distributed && !exec.fault_plan.empty() && driver.checkpointing() &&
      !exec.fault_plan.leaves_schedulable(exec.cluster.nodes)) {
    driver.park("fault plan leaves no schedulable node");
  }
  // The in-process stages share one pool; MapReduce jobs lease their own.
  std::optional<mr::runtime::PoolLease> lease;
  if (!exec.distributed) lease.emplace(exec.threads, exec.isolated_pool);
  common::ThreadPool* pool = lease ? &lease->pool() : nullptr;

  const auto sketches = std::make_shared<const kernels::SketchMatrix>(
      driver.run_stage(
          "sketch",
          [&] {
            return exec.distributed ? run_sketch_job(reads, params, exec,
                                                     result.sketch_stats)
                                    : sketch_reads(reads, params, pool);
          },
          encode_sketches, decode_sketches));
  result.sim_total_s += result.sketch_stats.timeline.total_s;

  // Hierarchical mode clusters a dense matrix: the similarity stage's, or
  // the verified LSH graph densified (freed before agglomerate).
  const bool greedy = params.mode == Mode::kGreedy;
  const bool lsh = params.candidates.backend == candidates::Backend::kLshBanded;
  SimilarityMatrix matrix;
  std::optional<candidates::SparseSimilarityGraph> graph;
  if (!greedy && lsh) {
    graph = run_candidate_stages(sketches, params, knobs, exec, pool, driver,
                                 result);
  }
  if (graph) {
    result.candidate_pairs = graph->edges.size();
    matrix = similarity_matrix_from_graph(*graph);
    graph.reset();
  } else if (!greedy) {
    matrix = driver.run_stage(
        "similarity",
        [&] {
          return exec.distributed
                     ? run_similarity_job(sketches, params, knobs, exec,
                                          result.similarity_stats)
                     : pairwise_similarity_matrix(*sketches, knobs.estimator,
                                                  pool);
        },
        encode_matrix, decode_matrix);
    result.sim_total_s += result.similarity_stats.timeline.total_s;
  }

  // The cluster step: called inline by the local executor, and by the
  // single GROUP-ALL reducer when distributed.  Greedy runs the bucket sweep
  // over `source`: the configured candidate backend, or its exact copy once
  // an LSH greedy-cluster stage degrades.  Band shape keeps the ORIGINAL
  // theta (see EffectiveKnobs).
  candidates::Params source = params.candidates;
  const GreedyParams greedy_params{knobs.theta, knobs.estimator};
  std::size_t pairs_scored = 0;
  const ClusterStep cluster = [&](mr::Counters& counters) {
    if (!greedy) {
      return cut_dendrogram(agglomerate(matrix, params.linkage), knobs.theta);
    }
    GreedyResult swept =
        greedy_cluster(*sketches, greedy_params, source, params.theta, pool);
    pairs_scored = swept.comparisons;
    counters["greedy.pairs_scored"] += static_cast<long>(pairs_scored);
    return std::move(swept.labels);
  };
  // Simulated reducer cost, deterministic and read after the reducer ran.
  // The LSH sweep makes n · bands bucket probes plus the comparisons it
  // counted.  Exhaustive greedy comparisons are data dependent; model the
  // observed ~N*sqrt(N) envelope.
  const auto vertices = static_cast<double>(n);
  const std::function<double()> reduce_work = [&] {
    if (!greedy) return cost::dendrogram_work(n);
    if (source.backend == candidates::Backend::kExactAllPairs) {
      return vertices * std::max(1.0, std::sqrt(vertices)) *
             cost::compare_work(100);
    }
    const std::size_t bands =
        candidates::resolve_band_shape(source, params.minhash.num_hashes,
                                       params.theta)
            .bands;
    return (vertices * static_cast<double>(bands) +
            static_cast<double>(pairs_scored)) *
           cost::compare_work(100);
  };
  auto run_cluster_stage = [&](const std::string& stage) {
    return driver.run_stage(
        stage,
        [&] {
          return exec.distributed
                     ? run_cluster_job(stage, n, cluster, reduce_work,
                                       greedy ? exec.records_per_split
                                              : std::max<std::size_t>(1, n / 8),
                                       exec, result.cluster_stats)
                     : run_cluster_inline(cluster);
        },
        encode_labels, decode_labels);
  };
  const std::string cluster_stage =
      greedy ? "greedy-cluster" : "hierarchical-cluster";
  try {
    result.labels = run_cluster_stage(cluster_stage);
  } catch (const mr::recovery::RetryExhausted& error) {
    if (!greedy || !lsh || !lsh_fallback_allowed(exec, n)) throw;
    // Graceful degradation, as for hierarchical's candidates stage: the
    // exact sweep clusters with the same θ semantics at O(N · clusters)
    // cost.
    note_lsh_fallback(driver, cluster_stage, "exact greedy", n, error);
    source.backend = candidates::Backend::kExactAllPairs;
    result.labels = run_cluster_stage(cluster_stage + "-exact-fallback");
  }
  result.sim_total_s += result.cluster_stats.timeline.total_s;
  if (greedy) result.candidate_pairs = pairs_scored;
}

}  // namespace

FastqPipelineResult run_pipeline_fastq(std::span<const bio::FastqRecord> reads,
                                       const bio::QualityFilter& qc,
                                       const PipelineParams& params,
                                       const ExecutionOptions& exec) {
  FastqPipelineResult result;
  const std::vector<bio::FastqRecord> input(reads.begin(), reads.end());
  {
    obs::Tracer::Span qc_span(obs::Tracer::global(), "pipeline/fastq_qc",
                              {{"reads", std::to_string(reads.size())}});
    const auto filtered = bio::quality_filter(input, qc, &result.dropped);
    result.kept = bio::to_fasta(filtered);
  }
  obs::Registry::global()
      .counter("pipeline.fastq_reads_dropped")
      .add(static_cast<long>(result.dropped));
  obs::Registry::global()
      .counter("pipeline.fastq_reads_kept")
      .add(static_cast<long>(result.kept.size()));
  result.clustering = run_pipeline(result.kept, params, exec);
  return result;
}

PipelineResult run_pipeline(std::span<const bio::FastaRecord> reads,
                            const PipelineParams& params,
                            const ExecutionOptions& exec) {
  common::Stopwatch watch;
  // Reject bad parameters here, before the driver's retry loop could turn
  // them into RetryExhausted (and, for candidates, into the exact fallback).
  MRMC_REQUIRE(valid_sketch_bits(params.sketch_bits),
               "sketch_bits must be one of {1, 2, 4, 8, 16, 32, 64}");
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  if (params.candidates.backend == candidates::Backend::kLshBanded) {
    (void)candidates::resolve_band_shape(
        params.candidates, params.minhash.num_hashes, params.theta);
  }
  PipelineResult result;
  if (reads.empty()) return result;

  auto& tracer = obs::Tracer::global();
  obs::Tracer::Span pipeline_span(
      tracer, std::string("pipeline ") + mode_name(params.mode),
      {{"reads", std::to_string(reads.size())},
       {"distributed", exec.distributed ? "true" : "false"}});

  // Lineage root (distributed only): every job this pipeline drives claims
  // a (pipeline id, stage, sequence) from this scope, so the doctor can
  // stitch the jobs back into one PipelineReport from the trace alone.
  std::optional<obs::pipeline::PipelineScope> lineage;
  if (exec.distributed) {
    lineage.emplace(std::string("pipeline-") + mode_name(params.mode));
  }

  mr::recovery::StageDriver::Options driver_options;
  driver_options.label = std::string("pipeline-") + mode_name(params.mode);
  driver_options.checkpoint_dir = exec.checkpoint_dir;
  driver_options.retry.max_job_attempts = exec.max_job_attempts;
  driver_options.retry.job_timeout_s = exec.job_timeout_s;
  driver_options.retry.backoff_base_s = exec.backoff_base_s;
  driver_options.retry.backoff_cap_s = exec.backoff_cap_s;
  driver_options = mr::recovery::StageDriver::Options::from_env(driver_options);
  if (!driver_options.checkpoint_dir.empty()) {
    // Only fingerprint when checkpointing: the input hash walks every
    // read and is wasted work otherwise.
    driver_options.params_fingerprint = params_fingerprint(params);
    driver_options.input_fingerprint = input_fingerprint(reads);
  }
  mr::recovery::StageDriver driver(driver_options);

  try {
    run_pipeline_stages(reads, params, exec, driver, result);
  } catch (...) {
    // A crashed/parked/exhausted driver still leaves complete artifacts
    // behind — the resume run's doctor needs this run's trace.
    result.recovery = driver.stats();
    obs::pipeline::flush_boundary();
    throw;
  }
  result.recovery = driver.stats();

  result.num_clusters = count_clusters(result.labels);
  result.wall_s = watch.seconds();
  pipeline_span.arg("clusters", std::to_string(result.num_clusters));
  pipeline_span.arg("sim_total_s", obs::trace_double(result.sim_total_s));

  static const obs::Logger logger("core.pipeline");
  logger.info("pipeline finished",
              {{"mode", mode_name(params.mode)},
               {"reads", reads.size()},
               {"clusters", result.num_clusters},
               {"wall_s", result.wall_s},
               {"sim_total_s", result.sim_total_s}});

  // Honor MRMC_TRACE / MRMC_METRICS / MRMC_REPORT / MRMC_PIPELINE at every
  // pipeline boundary so even a caller that exits abnormally afterwards has
  // a complete artifact.
  obs::pipeline::flush_boundary();
  return result;
}

}  // namespace mrmc::core
