#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"

namespace mrmc::eval {

std::vector<std::size_t> cluster_sizes(std::span<const int> labels) {
  int max_label = -1;
  for (const int label : labels) {
    MRMC_REQUIRE(label >= 0, "labels must be non-negative");
    max_label = std::max(max_label, label);
  }
  std::vector<std::size_t> sizes(static_cast<std::size_t>(max_label + 1), 0);
  for (const int label : labels) ++sizes[label];
  return sizes;
}

double weighted_cluster_accuracy(std::span<const int> labels,
                                 std::span<const int> truth,
                                 const AccuracyOptions& options) {
  MRMC_REQUIRE(labels.size() == truth.size(), "one truth class per label");
  if (labels.empty()) return 0.0;

  // Per-cluster class histograms.
  std::map<int, std::map<int, std::size_t>> histograms;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    ++histograms[labels[i]][truth[i]];
  }

  double weighted_sum = 0.0;
  std::size_t total_weight = 0;
  for (const auto& [cluster, histogram] : histograms) {
    std::size_t size = 0;
    std::size_t majority = 0;
    for (const auto& [cls, count] : histogram) {
      size += count;
      majority = std::max(majority, count);
    }
    if (size < options.min_cluster_size) continue;
    // Weighting by size: sum(majority) / sum(size) == size-weighted mean of
    // per-cluster accuracy majority/size.
    weighted_sum += static_cast<double>(majority);
    total_weight += size;
  }
  return total_weight == 0 ? 0.0
                           : weighted_sum / static_cast<double>(total_weight);
}

double weighted_similarity(std::span<const int> labels,
                           std::span<const bio::FastaRecord> reads,
                           const SimilarityOptions& options) {
  MRMC_REQUIRE(labels.size() == reads.size(), "one read per label");
  if (labels.empty()) return 0.0;

  // Member lists per cluster.
  std::map<int, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    members[labels[i]].push_back(i);
  }

  struct ClusterTask {
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    std::size_t size = 0;
  };
  std::vector<ClusterTask> tasks;
  for (const auto& [cluster, indices] : members) {
    if (indices.size() < options.min_cluster_size || indices.size() < 2) continue;
    ClusterTask task;
    task.size = indices.size();
    const std::size_t cluster_pairs = indices.size() * (indices.size() - 1) / 2;
    if (cluster_pairs <= options.max_pairs_per_cluster) {
      for (std::size_t a = 0; a < indices.size(); ++a) {
        for (std::size_t b = a + 1; b < indices.size(); ++b) {
          task.pairs.emplace_back(indices[a], indices[b]);
        }
      }
    } else {
      common::Xoshiro256 rng(
          common::mix64(options.seed ^ static_cast<std::uint64_t>(cluster)));
      for (std::size_t draw = 0; draw < options.max_pairs_per_cluster; ++draw) {
        const std::size_t a = rng.bounded(indices.size());
        std::size_t b = rng.bounded(indices.size() - 1);
        if (b >= a) ++b;
        task.pairs.emplace_back(indices[std::min(a, b)], indices[std::max(a, b)]);
      }
    }
    tasks.push_back(std::move(task));
  }
  if (tasks.empty()) return 0.0;

  std::vector<double> cluster_sim(tasks.size(), 0.0);
  common::ThreadPool pool(options.threads);
  pool.parallel_for(tasks.size(), [&](std::size_t t) {
    const ClusterTask& task = tasks[t];
    double sum = 0.0;
    for (const auto& [i, j] : task.pairs) {
      sum += bio::global_identity(reads[i].seq, reads[j].seq, options.align);
    }
    cluster_sim[t] = sum / static_cast<double>(task.pairs.size());
  });

  double weighted_sum = 0.0;
  double total_weight = 0.0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    weighted_sum += cluster_sim[t] * static_cast<double>(tasks[t].size);
    total_weight += static_cast<double>(tasks[t].size);
  }
  return weighted_sum / total_weight;
}

std::size_t clusters_at_least(std::span<const int> labels, std::size_t min_size) {
  const auto sizes = cluster_sizes(labels);
  std::size_t count = 0;
  for (const std::size_t size : sizes) {
    if (size >= min_size && size > 0) ++count;
  }
  return count;
}

double shannon_index(std::span<const int> labels) {
  if (labels.empty()) return 0.0;
  const auto sizes = cluster_sizes(labels);
  const auto total = static_cast<double>(labels.size());
  double h = 0.0;
  for (const std::size_t size : sizes) {
    if (size == 0) continue;
    const double p = static_cast<double>(size) / total;
    h -= p * std::log(p);
  }
  return h;
}

double chao1_richness(std::span<const int> labels) {
  if (labels.empty()) return 0.0;
  const auto sizes = cluster_sizes(labels);
  double observed = 0, singletons = 0, doubletons = 0;
  for (const std::size_t size : sizes) {
    if (size == 0) continue;
    ++observed;
    if (size == 1) ++singletons;
    if (size == 2) ++doubletons;
  }
  if (doubletons > 0) {
    return observed + singletons * singletons / (2.0 * doubletons);
  }
  // Bias-corrected form when no doubletons exist.
  return observed + singletons * (singletons - 1.0) / 2.0;
}

}  // namespace mrmc::eval
