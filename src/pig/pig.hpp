// PigContext — a miniature Pig Latin runtime.  Each dataflow operator
// (LOAD / FOREACH..GENERATE..FLATTEN / GROUP ALL / GROUP BY / STORE) runs
// on the simulated cluster the way Pig plans scripts onto Hadoop: FOREACH
// and GROUP are one MapReduce job each, LOAD and STORE are DFS reads and
// writes.  Job statistics and simulated time accumulate in the context.
// Scripts drive a context through run_script (pig/script.hpp), the one pig
// driver; run_algorithm3 below is the paper's script run through it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mr/cluster.hpp"
#include "mr/job.hpp"
#include "mr/recovery.hpp"
#include "mr/simdfs.hpp"
#include "pig/tuple.hpp"
#include "pig/udf.hpp"

namespace mrmc::pig {

class PigContext {
 public:
  /// `threads == 0` runs every statement's job on the process-wide shared
  /// pool (mr::runtime::shared_pool()); > 0 uses a private pool per job.
  PigContext(mr::SimDfs* dfs, mr::ClusterConfig cluster, std::size_t threads = 0);

  /// LOAD '<path>' USING FastaStorage AS (seq, id): parses a FASTA file
  /// stored in the DFS into (seq:chararray, id:chararray) tuples.
  Relation load_fasta(const std::string& path);

  /// B = FOREACH A GENERATE FLATTEN(udf(...)): one MapReduce job; the UDF
  /// runs in the mappers, output order follows input order.
  Relation foreach_generate(const Relation& input, const Udf& udf);

  /// G = GROUP A ALL: single-reducer job producing one tuple whose only
  /// field is the bag of all input tuples (input order preserved).
  Relation group_all(const Relation& input);

  /// G = GROUP A BY $field: keyed shuffle producing (key, bag) tuples, one
  /// per distinct value of the (string/long) field, ordered by key.  This
  /// is the engine's real reduce-side grouping, unlike GROUP ALL's
  /// single-reducer funnel.
  Relation group_by(const Relation& input, std::size_t field);

  /// STORE A INTO '<path>': writes tab-separated text into the DFS.
  void store(const Relation& relation, const std::string& path);

  /// Accumulated simulated cluster time of every job this context ran.
  [[nodiscard]] double sim_time_s() const noexcept { return sim_time_s_; }
  [[nodiscard]] const std::vector<mr::JobStats>& job_history() const noexcept {
    return jobs_;
  }
  [[nodiscard]] mr::SimDfs& dfs() noexcept { return *dfs_; }

 private:
  mr::JobConfig make_config(const std::string& name, std::size_t reducers) const;

  /// Run `job` over `input`, each tuple keyed by its index (the order every
  /// operator restores), and record the job's statistics.
  template <typename Job>
  auto run_indexed(Job& job, const Relation& input);

  mr::SimDfs* dfs_;
  mr::ClusterConfig cluster_;
  std::size_t threads_;
  double sim_time_s_ = 0.0;
  std::vector<mr::JobStats> jobs_;
};

/// Parameters of the paper's Algorithm 3 Pig script.
struct Algorithm3Params {
  int kmer = 5;                   ///< $KMER
  std::size_t num_hashes = 100;   ///< $NUMHASH
  std::uint64_t seed = 1;         ///< seeds the hash family ($DIV analogue)
  double cutoff = 0.9;            ///< $CUTOFF
  core::Linkage linkage = core::Linkage::kAverage;  ///< $LINK
};

struct Algorithm3Result {
  std::vector<std::pair<std::string, int>> hierarchical;  ///< (read id, label)
  std::vector<std::pair<std::string, int>> greedy;
  /// Simulated time / job count of the jobs *this process* ran; a resumed
  /// run (MRMC_CHECKPOINT_DIR) serves completed steps from checkpoint, so
  /// both shrink while the stored outputs stay byte-identical.
  double sim_time_s = 0.0;
  std::size_t jobs_run = 0;
  mr::recovery::RecoveryStats recovery;  ///< checkpoint hits/misses/retries
};

/// Execute Algorithm 3 end to end: run algorithm3_script() through
/// run_script with `params` as its $-parameters ($DIV = 0, so `seed` alone
/// seeds the hash family), storing into `out_hier` / `out_greedy`, under the
/// driver and lineage label "algorithm3".  Relations K and L become the
/// result's labels.
Algorithm3Result run_algorithm3(mr::SimDfs& dfs, const std::string& input_path,
                                const std::string& out_hier,
                                const std::string& out_greedy,
                                const Algorithm3Params& params,
                                const mr::ClusterConfig& cluster = {},
                                std::size_t threads = 0);

}  // namespace mrmc::pig
