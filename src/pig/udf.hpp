// The paper's User Defined Functions (Algorithm 3).  Each UDF maps one
// input tuple to zero or more output tuples (Pig's FOREACH ... GENERATE
// FLATTEN semantics).  The UDFs convert between tuples and core types and
// call core for the work (MinHasher, pairwise_similarity_matrix,
// candidates::build_graph, agglomerate, greedy_cluster); pig holds no
// similarity code of its own.
//
//   StringGenerator        (seq:chararray, id) -> (codes:list, id)
//   TranslateToKmer        (codes:list, id)    -> (kmers:list, id)
//   CalculateMinwiseHash   (kmers:list, id)    -> (minwise:list, id)
//   CalculatePairwiseSimilarity  group bag     -> (row:long, sims:list, id...)
//   AgglomerativeHierarchicalClustering  bag   -> (id, label:long) per read
//   GreedyClustering                     bag   -> (id, label:long) per read
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/candidates.hpp"
#include "core/hierarchical.hpp"
#include "core/minhash.hpp"
#include "pig/tuple.hpp"

namespace mrmc::pig {

class Udf {
 public:
  virtual ~Udf() = default;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// FLATTEN semantics: each input tuple may yield several output tuples.
  virtual Bag exec(const Tuple& input) const = 0;
  /// Every output tuple's fields, one digit each: its Value alternative.
  [[nodiscard]] virtual std::string_view output_fields() const noexcept = 0;
};

/// DNA characters -> integer codes (A=0 C=1 G=2 T=3, ambiguous = -1).
class StringGenerator final : public Udf {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "StringGenerator"; }
  Bag exec(const Tuple& input) const override;
  [[nodiscard]] std::string_view output_fields() const noexcept override { return "30"; }
};

/// Integer codes -> packed k-mer feature set (sorted unique).
class TranslateToKmer final : public Udf {
 public:
  explicit TranslateToKmer(int k);
  [[nodiscard]] const char* name() const noexcept override { return "TranslateToKmer"; }
  Bag exec(const Tuple& input) const override;
  [[nodiscard]] std::string_view output_fields() const noexcept override { return "30"; }

 private:
  int k_;
};

/// k-mer set -> minwise sketch via the universal hash family (Equation 5) or
/// the C-MinHash affine-composition family (`scheme`).
class CalculateMinwiseHash final : public Udf {
 public:
  CalculateMinwiseHash(std::size_t num_hashes, int kmer, std::uint64_t seed,
                       core::SketchScheme scheme = core::SketchScheme::kUniversal);
  [[nodiscard]] const char* name() const noexcept override {
    return "CalculateMinwiseHash";
  }
  Bag exec(const Tuple& input) const override;
  [[nodiscard]] std::string_view output_fields() const noexcept override { return "30"; }

 private:
  std::shared_ptr<core::MinHasher> hasher_;
};

/// Grouped sketches -> one similarity-matrix row per read (row-partitioned,
/// j > row only).  The default exact backend is core's
/// pairwise_similarity_matrix; core::candidates' LSH backend (banding
/// resolved from `theta` via the S-curve) is similarity_matrix_from_graph
/// over build_graph, so non-candidate cells stay 0.  Cells carry core's
/// float similarities; the row shape is the same under either backend.
class CalculatePairwiseSimilarity final : public Udf {
 public:
  explicit CalculatePairwiseSimilarity(core::SketchEstimator estimator,
                                       core::candidates::Params candidates = {},
                                       double theta = 0.9);
  [[nodiscard]] const char* name() const noexcept override {
    return "CalculatePairwiseSimilarity";
  }
  Bag exec(const Tuple& input) const override;
  [[nodiscard]] std::string_view output_fields() const noexcept override { return "140"; }

 private:
  core::SketchEstimator estimator_;
  core::candidates::Params candidates_;
  double theta_;
};

/// Grouped similarity rows -> (id, label) per read.
class AgglomerativeHierarchicalClustering final : public Udf {
 public:
  AgglomerativeHierarchicalClustering(core::Linkage linkage, double cutoff);
  [[nodiscard]] const char* name() const noexcept override {
    return "AgglomerativeHierarchicalClustering";
  }
  Bag exec(const Tuple& input) const override;
  [[nodiscard]] std::string_view output_fields() const noexcept override { return "01"; }

 private:
  core::Linkage linkage_;
  double cutoff_;
};

/// Grouped sketches -> (id, label) per read via Algorithm 1.
class GreedyClustering final : public Udf {
 public:
  GreedyClustering(double cutoff, core::SketchEstimator estimator);
  [[nodiscard]] const char* name() const noexcept override { return "GreedyClustering"; }
  Bag exec(const Tuple& input) const override;
  [[nodiscard]] std::string_view output_fields() const noexcept override { return "01"; }

 private:
  double cutoff_;
  core::SketchEstimator estimator_;
};

}  // namespace mrmc::pig
