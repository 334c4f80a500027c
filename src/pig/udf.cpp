#include "pig/udf.hpp"

#include <algorithm>

#include "bio/dna.hpp"
#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "core/greedy.hpp"
#include "core/kernels.hpp"

namespace mrmc::pig {

namespace {

core::Sketch to_sketch(const std::vector<long>& values) {
  core::Sketch sketch;
  sketch.reserve(values.size());
  for (const long v : values) sketch.push_back(static_cast<std::uint64_t>(v));
  return sketch;
}

std::vector<long> from_sketch(const core::Sketch& sketch) {
  std::vector<long> values;
  values.reserve(sketch.size());
  for (const std::uint64_t v : sketch) values.push_back(static_cast<long>(v));
  return values;
}

}  // namespace

// ------------------------------------------------------------ StringGenerator

Bag StringGenerator::exec(const Tuple& input) const {
  const auto& seq = input.get<std::string>(0);
  std::vector<long> codes;
  codes.reserve(seq.size());
  for (const char c : seq) codes.push_back(bio::encode_base(c));
  Tuple out;
  out.fields.emplace_back(std::move(codes));
  out.fields.push_back(input.fields.at(1));  // id passes through
  return {std::move(out)};
}

// ------------------------------------------------------------ TranslateToKmer

TranslateToKmer::TranslateToKmer(int k) : k_(k) {
  MRMC_REQUIRE(k >= 1 && k <= bio::kMaxKmerK, "k must be in [1, 31]");
}

Bag TranslateToKmer::exec(const Tuple& input) const {
  const auto& codes = input.get<std::vector<long>>(0);
  // Rolling 2-bit packing over the integer codes; windows containing an
  // ambiguous code (-1) restart, mirroring bio::extract_kmers.
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k_)) - 1;
  std::uint64_t word = 0;
  int filled = 0;
  std::vector<long> kmers;
  for (const long code : codes) {
    if (code < 0 || code > 3) {
      filled = 0;
      word = 0;
      continue;
    }
    word = ((word << 2) | static_cast<std::uint64_t>(code)) & mask;
    if (++filled >= k_) kmers.push_back(static_cast<long>(word));
  }
  std::sort(kmers.begin(), kmers.end());
  kmers.erase(std::unique(kmers.begin(), kmers.end()), kmers.end());

  Tuple out;
  out.fields.emplace_back(std::move(kmers));
  out.fields.push_back(input.fields.at(1));
  return {std::move(out)};
}

// ------------------------------------------------------- CalculateMinwiseHash

CalculateMinwiseHash::CalculateMinwiseHash(std::size_t num_hashes, int kmer,
                                           std::uint64_t seed,
                                           core::SketchScheme scheme)
    : hasher_(std::make_shared<core::MinHasher>(core::MinHashParams{
          .kmer = kmer,
          .num_hashes = num_hashes,
          .canonical = false,
          .seed = seed,
          .scheme = scheme})) {}

Bag CalculateMinwiseHash::exec(const Tuple& input) const {
  const auto& kmers = input.get<std::vector<long>>(0);
  std::vector<std::uint64_t> features;
  features.reserve(kmers.size());
  for (const long k : kmers) features.push_back(static_cast<std::uint64_t>(k));
  const core::Sketch sketch = hasher_->sketch_features(features);

  Tuple out;
  out.fields.emplace_back(from_sketch(sketch));
  out.fields.push_back(input.fields.at(1));
  return {std::move(out)};
}

// ------------------------------------------- CalculatePairwiseSimilarity

CalculatePairwiseSimilarity::CalculatePairwiseSimilarity(
    core::SketchEstimator estimator, core::candidates::Params candidates,
    double theta)
    : estimator_(estimator), candidates_(candidates), theta_(theta) {}

Bag CalculatePairwiseSimilarity::exec(const Tuple& input) const {
  const auto& group = input.get<Bag>(0);
  std::vector<core::Sketch> gathered;
  gathered.reserve(group.size());
  for (const Tuple& tuple : group) {
    gathered.push_back(to_sketch(tuple.get<std::vector<long>>(0)));
  }
  // Throws common::InvalidArgument on a ragged group.
  const auto sketches = core::kernels::SketchMatrix::from_sketches(gathered);

  // Core's all-pairs matrix, or the densified LSH candidate graph (absent
  // pairs stay 0): the same similarity code run_pipeline uses.
  const core::SimilarityMatrix matrix =
      candidates_.backend == core::candidates::Backend::kLshBanded
          ? core::similarity_matrix_from_graph(core::candidates::build_graph(
                sketches, candidates_, theta_, estimator_))
          : core::pairwise_similarity_matrix(sketches, estimator_);

  Bag rows;
  rows.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const auto upper = matrix.row(i).subspan(i + 1);
    Tuple row;
    row.fields.emplace_back(static_cast<long>(i));
    row.fields.emplace_back(std::vector<double>(upper.begin(), upper.end()));
    row.fields.push_back(group[i].fields.at(1));  // read id
    rows.push_back(std::move(row));
  }
  return rows;
}

// ------------------------------------ AgglomerativeHierarchicalClustering

AgglomerativeHierarchicalClustering::AgglomerativeHierarchicalClustering(
    core::Linkage linkage, double cutoff)
    : linkage_(linkage), cutoff_(cutoff) {
  MRMC_REQUIRE(cutoff >= 0.0 && cutoff <= 1.0, "cutoff in [0, 1]");
}

Bag AgglomerativeHierarchicalClustering::exec(const Tuple& input) const {
  const auto& group = input.get<Bag>(0);  // similarity rows
  const std::size_t n = group.size();
  core::SimilarityMatrix matrix(n, 0.0F);
  std::vector<std::string> ids(n);
  for (const Tuple& tuple : group) {
    const auto row = static_cast<std::size_t>(tuple.get<long>(0));
    MRMC_CHECK(row < n, "similarity row index out of range");
    const auto& sims = tuple.get<std::vector<double>>(1);
    matrix.set(row, row, 1.0F);
    for (std::size_t j = 0; j < sims.size(); ++j) {
      matrix.set(row, row + 1 + j, static_cast<float>(sims[j]));
    }
    ids[row] = tuple.get<std::string>(2);
  }

  const core::Dendrogram dendrogram = core::agglomerate(matrix, linkage_);
  const std::vector<int> labels = core::cut_dendrogram(dendrogram, cutoff_);

  Bag out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple tuple;
    tuple.fields.emplace_back(ids[i]);
    tuple.fields.emplace_back(static_cast<long>(labels[i]));
    out.push_back(std::move(tuple));
  }
  return out;
}

// ------------------------------------------------------------ GreedyClustering

GreedyClustering::GreedyClustering(double cutoff, core::SketchEstimator estimator)
    : cutoff_(cutoff), estimator_(estimator) {
  MRMC_REQUIRE(cutoff >= 0.0 && cutoff <= 1.0, "cutoff in [0, 1]");
}

Bag GreedyClustering::exec(const Tuple& input) const {
  const auto& group = input.get<Bag>(0);  // minwise tuples
  std::vector<core::Sketch> sketches;
  sketches.reserve(group.size());
  for (const Tuple& tuple : group) {
    sketches.push_back(to_sketch(tuple.get<std::vector<long>>(0)));
  }
  const core::GreedyResult result = core::greedy_cluster(
      core::kernels::SketchMatrix::from_sketches(sketches),
      {cutoff_, estimator_});

  Bag out;
  out.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    Tuple tuple;
    tuple.fields.push_back(group[i].fields.at(1));
    tuple.fields.emplace_back(static_cast<long>(result.labels[i]));
    out.push_back(std::move(tuple));
  }
  return out;
}

}  // namespace mrmc::pig
