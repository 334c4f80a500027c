// mrmc_perfbench — the measuring process of the repository benchmark.
// perfbench/run.py builds it and starts one process per workload:
//
//   mrmc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>] [--reads <n>] [--corrupt-labels]
//
// --trace 0 times FASTA text -> labels (bio::read_fasta_string followed by
// core::run_pipeline) and reports the end-to-end metrics.  --trace 1 calls
// each layer's public functions itself, in the order run_pipeline uses them,
// records spans around those calls and reports the per-layer metrics.
// --reads shrinks the input for the self-tests; --corrupt-labels damages
// one label vector so the self-tests can see the output check fire.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}.
// The exit status is 0 only when every output check passed.  Metric names,
// units and the reasons behind each workload are in perfbench/NOTES.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bio/fasta.hpp"
#include "bio/kmer.hpp"
#include "common/thread_pool.hpp"
#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "core/kernels.hpp"
#include "core/minhash.hpp"
#include "core/pipeline.hpp"
#include "eval/external_indices.hpp"
#include "eval/metrics.hpp"
#include "simdata/datasets.hpp"
#include "simdata/marker16s.hpp"

namespace {

using namespace mrmc;
using Clock = std::chrono::steady_clock;

/// Set-up rounds per run; setup_s is their median.  The first round is the
/// cold one (page faults, allocator growth), so the median skips it.
constexpr int kSetupRounds = 3;
/// Timed repeats run until --seconds have passed, but never fewer than this.
constexpr int kMinRepeats = 3;
/// Worker threads: the probe's 4, or fewer on a smaller machine.
constexpr std::size_t kMaxThreads = 4;
/// Simulated cluster size of every distributed run (the paper's 8 nodes).
constexpr std::size_t kClusterNodes = 8;
/// Hash-family seed, fixed so that --seed changes only the input.
constexpr std::uint64_t kHashSeed = 42;
/// Seed of amplicon-lsh's gene community (the probe's seed).
constexpr std::uint64_t kCommunitySeed = 42;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  std::size_t reads = 0;
  /// Read count of the paper sample whose min-cluster-size rule W.Acc uses.
  std::size_t wacc_paper_reads = 0;
  core::PipelineParams params;
  core::ExecutionOptions exec;
  std::function<simdata::LabeledReads(std::size_t reads, std::uint64_t seed)>
      generate;
};

/// 16S amplicons at the ROADMAP operating point that clusters (ARI ~0.93):
/// LSH candidates, graph greedy.  Stresses core/candidates.
Workload amplicon_lsh() {
  Workload w;
  w.name = "amplicon-lsh";
  w.reads = 20000;
  w.wacc_paper_reads = 345000;  // Table IV rule: both 16S workloads
  w.params.minhash = {.kmer = 12, .num_hashes = 40, .seed = kHashSeed};
  w.params.mode = core::Mode::kGreedy;
  w.params.theta = 0.3;
  w.params.estimator = core::SketchEstimator::kComponentMatch;
  w.params.greedy_estimator = core::SketchEstimator::kComponentMatch;
  w.params.candidates.backend = core::candidates::Backend::kLshBanded;
  w.exec.distributed = false;
  // The community is fixed and --seed draws the reads from it: every gene
  // derives from one scaffold, so a new community per seed moved wall time
  // 2.6-5.9 s over five seeds, more than any bound could hold.
  w.generate = [](std::size_t reads, std::uint64_t seed) {
    const auto genes = simdata::generate_16s_genes(reads / 10, {}, kCommunitySeed);
    simdata::AmpliconParams amplicon;
    amplicon.errors = simdata::ErrorModel::uniform(0.01);
    amplicon.read_length = 80;
    return simdata::amplicon_reads(genes, std::vector<double>(genes.size(), 1.0),
                                   reads, amplicon, seed);
  };
  return w;
}

/// Table II sample S8 at the paper's Table III greedy shape.  Sketch-bound.
Workload shotgun_greedy() {
  Workload w;
  w.name = "shotgun-greedy";
  w.reads = 40000;
  w.wacc_paper_reads = simdata::whole_metagenome_spec("S8").paper_reads;
  w.params.minhash = {.kmer = 5, .num_hashes = 100, .canonical = true,
                      .seed = kHashSeed};
  w.params.mode = core::Mode::kGreedy;
  w.params.theta = 0.32;
  w.params.greedy_estimator = core::SketchEstimator::kSetBased;
  w.exec.distributed = false;
  w.generate = [](std::size_t reads, std::uint64_t seed) {
    simdata::WholeMetagenomeOptions options;
    options.reads = reads;
    options.read_length = 600;
    options.seed = seed;
    return simdata::build_whole_metagenome(simdata::whole_metagenome_spec("S8"),
                                           options);
  };
  return w;
}

/// Table IV simulated 16S (3 % error) through Algorithms 2/3 on the
/// simulated 8-node cluster: the only workload that runs the MR engine.
Workload hier_mr() {
  Workload w;
  w.name = "16s-hier-mr";
  w.reads = 5000;
  w.wacc_paper_reads = 345000;
  w.params.minhash = {.kmer = 15, .num_hashes = 50, .seed = kHashSeed};
  w.params.mode = core::Mode::kHierarchical;
  w.params.linkage = core::Linkage::kAverage;
  w.params.theta = 0.12;
  w.params.estimator = core::SketchEstimator::kComponentMatch;
  w.exec.distributed = true;
  w.exec.cluster.nodes = kClusterNodes;
  w.generate = [](std::size_t reads, std::uint64_t seed) {
    simdata::Sim16sOptions options;
    options.genomes = 43;
    options.reads = reads;
    options.error_rate = 0.03;
    options.read_length = 100;
    options.seed = seed;
    return simdata::build_16s_simulated(options);
  };
  return w;
}

Workload workload_by_name(const std::string& name) {
  for (auto make : {amplicon_lsh, shotgun_greedy, hier_mr}) {
    Workload w = make();
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (amplicon-lsh, shotgun-greedy, 16s-hier-mr)");
}

/// W.Acc with the paper's "clusters of more than 50 sequences" rule scaled
/// to the input size (the rule bench/table3 and bench/table4 apply).
std::size_t scaled_min_cluster_size(std::size_t reads, std::size_t paper_reads) {
  const double scaled = 50.0 * static_cast<double>(reads) /
                        static_cast<double>(paper_reads);
  return std::max<std::size_t>(2, static_cast<std::size_t>(scaled + 0.5));
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// failed_frac and ari are printed but not listed: failed_frac is 0 on a
/// correct run, and ari spreads wider over seeds on shotgun-greedy than any
/// allowed bound (see NOTES.md).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"wall_s", "s"},       {"reads_per_s", "1/s"}, {"cpu_s", "s"},
    {"peak_rss_mb", "MB"}, {"setup_s", "s"},       {"wacc", "fraction"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"bio.parse_s", "s"},
    {"bio.parse_mb_per_s", "MB/s"},
    {"bio.kmer_set_s", "s"},
    {"bio.kmers", "count"},
    {"sketch.s", "s"},
    {"sketch.us_per_read", "us"},
    {"sketch.hash_evals", "count"},
    {"candidates.enumerate_s", "s"},
    {"candidates.pairs", "count"},
    {"candidates.pairs_per_read", "count"},
    {"candidates.bands", "count"},
    {"candidates.rows", "count"},
    {"candidates.max_bucket", "count"},
    {"verify.s", "s"},
    {"verify.pass_rate", "fraction"},
    {"greedy.s", "s"},
    {"greedy.comparisons", "count"},
    {"greedy.clusters", "count"},
    {"greedy.singleton_frac", "fraction"},
    {"hier.similarity_s", "s"},
    {"hier.agglomerate_s", "s"},
    {"hier.cut_s", "s"},
    {"hier.matrix_mb", "MB"},
    {"mr.distributed_s", "s"},
    {"mr.local_s", "s"},
    {"mr.overhead_ratio", "ratio"},
    {"mr.shuffle_bytes", "bytes"},
    {"mr.sketch.shuffle_bytes", "bytes"},
    {"mr.similarity.shuffle_bytes", "bytes"},
    {"mr.candidates.shuffle_bytes", "bytes"},
    {"mr.verify.shuffle_bytes", "bytes"},
    {"mr.cluster.shuffle_bytes", "bytes"},
    {"mr.map_tasks", "count"},
    {"mr.reduce_tasks", "count"},
    {"mr.map_cpu_s", "s"},
    {"mr.reduce_cpu_s", "s"},
    {"mr.sim_total_s", "s"},
    {"trace.covered_frac", "fraction"},
    {"trace.overhead_s", "s"},
};

/// Per-iteration samples of every metric; reported as medians.  A metric
/// never sampled is a layer the workload bypasses and reads 0.
class Samples {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }

  [[nodiscard]] std::vector<Metric> medians(
      const std::vector<std::pair<std::string, std::string>>& names) const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : names) {
      const auto it = values_.find(name);
      out.push_back({name, unit, it == values_.end() ? 0.0 : median(it->second)});
    }
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

// -------------------------------------------------------------- spans

/// In-memory span log, written out when the run ends.  Spans are recorded
/// only around the benchmark's own calls into each layer.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index into spans(), -1 for a root
    int run = 0;      ///< workload-run id: the traced iteration
    double start_s = 0.0;
    double end_s = 0.0;
  };

  int begin(std::string name, int parent, int run) {
    spans_.push_back({std::move(name), parent, run, seconds_since(origin_), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes span `id`; returns its duration.
  double end(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_s = seconds_since(origin_);
    return span.end_s - span.start_s;
  }

  /// Runs `fn` inside a span; returns its duration.
  template <typename F>
  double timed(std::string name, int parent, int run, F&& fn) {
    const int id = begin(std::move(name), parent, run);
    std::forward<F>(fn)();
    return end(id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Duration minus the part of it that child spans cover (children of one
  /// span never overlap here: every call is made from one thread).
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
      }
    }
    return self;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------- the run

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t reads = 0;  ///< 0 = the workload's size
  std::string spans_path;
  bool corrupt_labels = false;
};

struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> messages;

  /// One checked operation: `run` must not throw and its labels must equal
  /// `expected`.  Returns the labels (empty when it threw).
  std::vector<int> check(const std::string& what, const std::vector<int>& expected,
                         const std::function<std::vector<int>()>& run) {
    ++attempted;
    try {
      std::vector<int> labels = run();
      if (labels != expected) fail(what + ": labels differ from the reference");
      return labels;
    } catch (const std::exception& error) {
      fail(what + " threw: " + error.what());
    }
    return {};
  }

  void fail(const std::string& message) {
    ++failed;
    messages.push_back(message);
  }
};

/// Environment variables that change what a pipeline run does or costs:
/// a checkpoint directory alone would let later repeats skip every stage.
std::string environment_refusal() {
  static const char* const kForbidden[] = {
      "MRMC_CHECKPOINT_DIR", "MRMC_CRASH_AFTER_STAGE", "MRMC_FAIL_STAGE",
      "MRMC_TRACE",          "MRMC_METRICS",           "MRMC_PIPELINE",
      "MRMC_REPORT",         "MRMC_PROGRESS",          "MRMC_SAMPLE"};
  for (const char* name : kForbidden) {
    if (std::getenv(name) != nullptr) {
      return std::string(name) + " is set; unset it for a timed run";
    }
  }
  if (const char* log = std::getenv("MRMC_LOG")) {
    if (std::string_view(log) != "warn" && std::string_view(log) != "") {
      return "MRMC_LOG=" + std::string(log) +
             " is not the default (warn); unset it for a timed run";
    }
  }
  return {};
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  const bool correct = checks.failed == 0 && checks.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", std::max(1L, checks.attempted),
              checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), number(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

class Bench {
 public:
  Bench(Options options, Workload workload)
      : options_(std::move(options)),
        workload_(std::move(workload)),
        threads_(std::min(kMaxThreads, nproc())),
        pool_(threads_) {
    if (options_.reads > 0) workload_.reads = options_.reads;
    workload_.exec.threads = threads_;
  }

  int run() {
    set_up();
    std::vector<Metric> metrics;
    if (!reference_.empty()) {
      metrics = options_.trace ? traced() : end_to_end();
    }
    report_environment();
    for (const auto& message : checks_.messages) {
      std::printf("# check failed: %s\n", message.c_str());
    }
    if (!reference_.empty() && sample_.has_labels()) {
      std::printf("# ari %s index (printed, not gated)\n",
                  number(eval::adjusted_rand_index(reference_, sample_.labels)).c_str());
    }
    std::printf("# failed_frac %s fraction (%ld of %ld checked passes)\n",
                number(static_cast<double>(checks_.failed) /
                       static_cast<double>(std::max(1L, checks_.attempted)))
                    .c_str(),
                checks_.failed, checks_.attempted);
    for (const Metric& metric : metrics) {
      std::printf("# %-28s %s %s\n", metric.name.c_str(),
                  number(metric.value).c_str(), metric.unit.c_str());
    }
    if (metrics.empty()) {
      for (const auto& [name, unit] : options_.trace ? kPerLayer : kEndToEnd) {
        metrics.push_back({name, unit, 0.0});
      }
    }
    print_result(checks_, metrics);
    return checks_.failed == 0 ? 0 : 1;
  }

 private:
  /// The timed operation: FASTA text -> labels.
  [[nodiscard]] std::vector<int> fasta_to_labels(const core::ExecutionOptions& exec) const {
    const auto records = bio::read_fasta_string(fasta_);
    return core::run_pipeline(records, workload_.params, exec).labels;
  }

  /// Generates the input, renders it to FASTA and makes one untimed
  /// warm-up pass, kSetupRounds times.  The first pass's labels are the
  /// reference every later pass must reproduce.
  void set_up() {
    std::vector<double> rounds;
    for (int round = 0; round < kSetupRounds; ++round) {
      const auto start = Clock::now();
      sample_ = workload_.generate(workload_.reads, options_.seed);
      fasta_ = bio::write_fasta_string(sample_.reads);
      if (round == 0) {
        try {
          ++checks_.attempted;
          reference_ = fasta_to_labels(workload_.exec);
        } catch (const std::exception& error) {
          checks_.fail(std::string("reference pass threw: ") + error.what());
          return;
        }
      } else {
        checks_.check("warm-up pass " + std::to_string(round), reference_,
                      [&] { return fasta_to_labels(workload_.exec); });
      }
      rounds.push_back(seconds_since(start));
    }
    setup_s_ = median(rounds);
  }

  std::vector<Metric> end_to_end() {
    std::vector<double> walls;
    std::vector<double> cpus;
    const auto start = Clock::now();
    while (static_cast<int>(walls.size()) < kMinRepeats ||
           seconds_since(start) < options_.seconds) {
      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      checks_.check("repeat " + std::to_string(walls.size()), reference_, [&] {
        std::vector<int> labels = fasta_to_labels(workload_.exec);
        if (options_.corrupt_labels && walls.empty()) labels.front() += 1;
        return labels;
      });
      walls.push_back(seconds_since(t0));
      cpus.push_back(process_cpu_s() - cpu0);
    }
    samples_line_ = std::to_string(walls.size()) + " timed repeats";
    std::printf("# repeat wall_s");
    for (const double wall : walls) std::printf(" %.4f", wall);
    std::printf("\n");
    const double wall = median(walls);
    const std::vector<int>& truth = sample_.labels;
    const std::size_t min_size =
        scaled_min_cluster_size(truth.size(), workload_.wacc_paper_reads);
    return {
        {"wall_s", "s", wall},
        {"reads_per_s", "1/s", static_cast<double>(sample_.size()) / wall},
        {"cpu_s", "s", median(cpus)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"setup_s", "s", setup_s_},
        {"wacc", "fraction",
         eval::weighted_cluster_accuracy(reference_, truth,
                                         {.min_cluster_size = min_size})},
    };
  }

  /// Sum of the JobStats of every job a distributed run launched.
  static void add_job_stats(Samples& samples, const core::PipelineResult& result) {
    const std::pair<const char*, const mr::JobStats*> jobs[] = {
        {"sketch", &result.sketch_stats},
        {"similarity", &result.similarity_stats},
        {"candidates", &result.candidate_stats},
        {"verify", &result.verify_stats},
        {"cluster", &result.cluster_stats}};
    double shuffle = 0.0, map_tasks = 0.0, reduce_tasks = 0.0, map_cpu = 0.0,
           reduce_cpu = 0.0;
    for (const auto& [job, stats] : jobs) {
      samples.add(std::string("mr.") + job + ".shuffle_bytes", stats->shuffle_bytes);
      shuffle += stats->shuffle_bytes;
      map_tasks += static_cast<double>(stats->map_tasks);
      reduce_tasks += static_cast<double>(stats->reduce_tasks);
      map_cpu += stats->map_cpu_s;
      reduce_cpu += stats->reduce_cpu_s;
    }
    samples.add("mr.shuffle_bytes", shuffle);
    samples.add("mr.map_tasks", map_tasks);
    samples.add("mr.reduce_tasks", reduce_tasks);
    samples.add("mr.map_cpu_s", map_cpu);
    samples.add("mr.reduce_cpu_s", reduce_cpu);
    samples.add("mr.sim_total_s", result.sim_total_s);
  }

  /// One traced pass: the layer calls run_pipeline's local path makes, in
  /// its order, each inside a span under the root span.  `untraced_s` is the
  /// same work without spans.  Returns the labels.
  std::vector<int> composed_pass(int run, double untraced_s, Samples& samples) {
    const core::PipelineParams& params = workload_.params;
    const double theta = params.theta;
    const int root = spans_.begin("pipeline", -1, run);
    std::vector<bio::FastaRecord> records;
    const double parse_s = spans_.timed("bio", root, run, [&] {
      records = bio::read_fasta_string(fasta_);
    });
    samples.add("bio.parse_s", parse_s);
    samples.add("bio.parse_mb_per_s", static_cast<double>(fasta_.size()) / 1e6 / parse_s);

    std::vector<std::string_view> seqs;
    seqs.reserve(records.size());
    for (const auto& record : records) seqs.emplace_back(record.seq);
    const double reads = static_cast<double>(records.size());

    core::kernels::SketchMatrix sketches;
    const double sketch_s = spans_.timed("core/minhash", root, run, [&] {
      sketches = core::MinHasher(params.minhash).sketch_matrix(seqs, &pool_);
    });
    samples.add("sketch.s", sketch_s);
    samples.add("sketch.us_per_read", sketch_s * 1e6 / reads);

    core::GreedyResult greedy;
    std::vector<int> labels;
    const core::GreedyParams greedy_params{theta, params.greedy_estimator};
    if (params.candidates.backend == core::candidates::Backend::kLshBanded) {
      const int layer = spans_.begin("core/candidates", root, run);
      std::vector<core::candidates::Pair> pairs;
      samples.add("candidates.enumerate_s", spans_.timed("enumerate", layer, run, [&] {
        pairs = core::candidates::enumerate_pairs(sketches, params.candidates,
                                                  theta, &pool_);
      }));
      core::candidates::SparseSimilarityGraph graph;
      samples.add("verify.s", spans_.timed("verify", layer, run, [&] {
        // Every LSH workload clusters with the graph greedy, so verification
        // scores with the greedy estimator.
        graph = core::candidates::verify_pairs(sketches, pairs,
                                               params.greedy_estimator, &pool_);
      }));
      spans_.end(layer);
      const auto passed = std::count_if(
          graph.edges.begin(), graph.edges.end(),
          [&](const core::candidates::Edge& edge) { return edge.similarity >= theta; });
      samples.add("candidates.pairs", static_cast<double>(pairs.size()));
      samples.add("candidates.pairs_per_read", static_cast<double>(pairs.size()) / reads);
      samples.add("verify.pass_rate",
                  pairs.empty() ? 0.0
                                : static_cast<double>(passed) /
                                      static_cast<double>(pairs.size()));
      samples.add("greedy.s", spans_.timed("core/greedy", root, run, [&] {
        greedy = core::greedy_cluster_graph(graph, greedy_params);
      }));
      labels = greedy.labels;
    } else if (params.mode == core::Mode::kGreedy) {
      samples.add("greedy.s", spans_.timed("core/greedy", root, run, [&] {
        greedy = core::greedy_cluster(sketches, greedy_params);
      }));
      labels = greedy.labels;
    } else {
      const int layer = spans_.begin("core/hierarchical", root, run);
      core::SimilarityMatrix matrix;
      core::Dendrogram dendrogram;
      samples.add("hier.similarity_s", spans_.timed("similarity", layer, run, [&] {
        matrix = core::pairwise_similarity_matrix(sketches, params.estimator, &pool_);
      }));
      samples.add("hier.agglomerate_s", spans_.timed("agglomerate", layer, run, [&] {
        dendrogram = core::agglomerate(matrix, params.linkage);
      }));
      samples.add("hier.cut_s", spans_.timed("cut", layer, run, [&] {
        labels = core::cut_dendrogram(dendrogram, theta);
      }));
      spans_.end(layer);
      samples.add("hier.matrix_mb", reads * reads * 4.0 / 1e6);
    }
    if (params.mode == core::Mode::kGreedy) {
      const auto sizes = eval::cluster_sizes(greedy.labels);
      const auto singletons = std::count(sizes.begin(), sizes.end(), std::size_t{1});
      samples.add("greedy.comparisons", static_cast<double>(greedy.comparisons));
      samples.add("greedy.clusters", static_cast<double>(greedy.num_clusters));
      samples.add("greedy.singleton_frac", static_cast<double>(singletons) / reads);
    }
    const double total = spans_.end(root);

    double covered = 0.0;
    const auto& spans = spans_.spans();
    for (const auto& span : spans) {
      if (span.parent == root) covered += span.end_s - span.start_s;
    }
    samples.add("trace.covered_frac", covered / total);
    samples.add("trace.overhead_s", total - untraced_s);
    return labels;
  }

  /// Layer counts that are not part of the FASTA -> labels composition:
  /// single-threaded k-mer extraction and the LSH bucket-size tail.
  void probes(int run, Samples& samples) {
    const core::PipelineParams& params = workload_.params;
    const bio::KmerParams kmer{params.minhash.kmer, params.minhash.canonical};
    double kmers = 0.0;
    samples.add("bio.kmer_set_s", spans_.timed("probe/bio.kmer_set", -1, run, [&] {
      for (const auto& read : sample_.reads) {
        kmers += static_cast<double>(bio::kmer_set(read.seq, kmer).size());
      }
    }));
    samples.add("bio.kmers", kmers);
    samples.add("sketch.hash_evals",
                kmers * static_cast<double>(params.minhash.num_hashes));

    if (params.candidates.backend != core::candidates::Backend::kLshBanded) return;
    std::vector<std::string_view> seqs;
    for (const auto& read : sample_.reads) seqs.emplace_back(read.seq);
    const auto sketches = core::MinHasher(params.minhash).sketch_matrix(seqs, &pool_);
    const auto shape = core::candidates::resolve_band_shape(
        params.candidates, sketches.cols(), params.theta);
    std::size_t max_bucket = 0;
    spans_.timed("probe/candidates.buckets", -1, run, [&] {
      for (std::size_t band = 0; band < shape.bands; ++band) {
        std::unordered_map<std::uint64_t, std::size_t> buckets;
        for (std::size_t i = 0; i < sketches.rows(); ++i) {
          const auto key = core::candidates::band_bucket_key(
              sketches.row(i), band, shape, params.candidates.seed);
          max_bucket = std::max(max_bucket, ++buckets[key]);
        }
      }
    });
    samples.add("candidates.bands", static_cast<double>(shape.bands));
    samples.add("candidates.rows", static_cast<double>(shape.rows));
    samples.add("candidates.max_bucket", static_cast<double>(max_bucket));
  }

  std::vector<Metric> traced() {
    Samples samples;
    core::ExecutionOptions local = workload_.exec;
    local.distributed = false;
    core::ExecutionOptions distributed = workload_.exec;
    distributed.distributed = true;
    distributed.cluster.nodes = kClusterNodes;

    const auto start = Clock::now();
    int run = 0;
    while (run < 1 || seconds_since(start) < options_.seconds) {
      // Untraced FASTA -> labels on the local path: the base that the traced
      // composition of the same calls is compared with.
      const auto t0 = Clock::now();
      std::vector<int> local_labels;
      const auto records = bio::read_fasta_string(fasta_);
      const double parse_s = seconds_since(t0);
      const int mr_span = spans_.begin("mr", -1, run);
      const double local_s = spans_.timed("local", mr_span, run, [&] {
        local_labels = checks_.check("local run_pipeline", reference_, [&] {
          return core::run_pipeline(records, workload_.params, local).labels;
        });
      });
      core::PipelineResult distributed_result;
      const double distributed_s = spans_.timed("distributed", mr_span, run, [&] {
        checks_.check("distributed run_pipeline", reference_, [&] {
          distributed_result = core::run_pipeline(records, workload_.params, distributed);
          return distributed_result.labels;
        });
      });
      spans_.end(mr_span);
      if (distributed_result.labels != local_labels) {
        checks_.fail("distributed labels differ from local labels");
      }
      samples.add("mr.local_s", local_s);
      samples.add("mr.distributed_s", distributed_s);
      samples.add("mr.overhead_ratio", distributed_s / local_s);
      add_job_stats(samples, distributed_result);

      checks_.check("composed layer calls", reference_, [&] {
        std::vector<int> labels = composed_pass(run, parse_s + local_s, samples);
        if (options_.corrupt_labels && run == 0) labels.front() += 1;
        return labels;
      });
      probes(run, samples);
      ++run;
    }
    samples_line_ = std::to_string(run) + " traced iterations";
    write_spans();
    return samples.medians(kPerLayer);
  }

  void write_spans() const {
    if (options_.spans_path.empty()) return;
    std::ofstream out(options_.spans_path);
    if (!out) {
      std::fprintf(stderr, "cannot write spans to %s\n", options_.spans_path.c_str());
      return;
    }
    const auto self = spans_.self_times();
    out << "{\"workload\": \"" << json_escape(workload_.name)
        << "\", \"seed\": " << options_.seed << ", \"spans\": [\n";
    const auto& spans = spans_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& span = spans[i];
      out << (i ? ",\n" : "") << "  {\"id\": " << i << ", \"name\": \""
          << json_escape(span.name) << "\", \"parent\": " << span.parent
          << ", \"run\": " << span.run << ", \"start_s\": " << number(span.start_s)
          << ", \"end_s\": " << number(span.end_s)
          << ", \"self_s\": " << number(self[i]) << "}";
    }
    out << "\n]}\n";
  }

  void report_environment() const {
    std::printf(
        "# env {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"reads\": %zu, "
        "\"fasta_bytes\": %zu, \"input_fnv\": \"%016llx\", \"threads\": %zu, "
        "\"nproc\": %zu, \"build_type\": \"%s\", \"kernel_backend\": \"%s\", "
        "\"samples\": \"%s\", \"setup_rounds\": %d}\n",
        workload_.name.c_str(), static_cast<unsigned long long>(options_.seed),
        options_.trace ? 1 : 0, sample_.reads.size(), fasta_.size(),
        static_cast<unsigned long long>(fnv1a(fasta_)), threads_, nproc(),
        MRMC_PERFBENCH_BUILD_TYPE,
        core::kernels::backend_name(core::kernels::active_backend()),
        samples_line_.c_str(), kSetupRounds);
    if (options_.trace) {
      // Self time per layer span name, summed over traced iterations.
      std::map<std::string, double> self_by_name;
      const auto self = spans_.self_times();
      for (std::size_t i = 0; i < spans_.spans().size(); ++i) {
        self_by_name[spans_.spans()[i].name] += self[i];
      }
      for (const auto& [name, seconds] : self_by_name) {
        std::printf("# self %-26s %s s\n", name.c_str(), number(seconds).c_str());
      }
    }
  }

  Options options_;
  Workload workload_;
  std::size_t threads_;
  common::ThreadPool pool_;
  Checks checks_;
  simdata::LabeledReads sample_;
  std::string fasta_;
  std::vector<int> reference_;
  double setup_s_ = 0.0;
  std::string samples_line_;
  SpanLog spans_;
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--reads") {
      options.reads = std::stoull(value());
    } else if (arg == "--spans") {
      options.spans_path = value();
    } else if (arg == "--corrupt-labels") {
      options.corrupt_labels = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    const std::string refusal = environment_refusal();
    if (!refusal.empty()) {
      std::fprintf(stderr, "mrmc_perfbench: refusing to run: %s\n", refusal.c_str());
      return 2;
    }
    Bench bench(options, workload_by_name(options.workload));
    return bench.run();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmc_perfbench: %s\n", error.what());
    return 2;
  }
}
