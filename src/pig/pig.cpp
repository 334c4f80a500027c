#include "pig/pig.hpp"

#include <algorithm>
#include <sstream>

#include "bio/fasta.hpp"
#include "common/error.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"
#include "pig/script.hpp"

namespace mrmc::pig {

namespace {

/// Room for FLATTEN fan-out per input tuple in the composite ordering key.
constexpr long kFlattenStride = 1L << 20;

struct IndexedTuple {
  long index = 0;
  Tuple tuple;
};

}  // namespace

std::string to_text(const Tuple& tuple) {
  std::ostringstream out;
  for (std::size_t f = 0; f < tuple.fields.size(); ++f) {
    if (f > 0) out << '\t';
    const Value& value = tuple.fields[f];
    if (const auto* s = std::get_if<std::string>(&value)) {
      out << *s;
    } else if (const auto* l = std::get_if<long>(&value)) {
      out << *l;
    } else if (const auto* d = std::get_if<double>(&value)) {
      out << *d;
    } else if (const auto* ll = std::get_if<std::vector<long>>(&value)) {
      for (std::size_t i = 0; i < ll->size(); ++i) {
        if (i > 0) out << ',';
        out << (*ll)[i];
      }
    } else if (const auto* dl = std::get_if<std::vector<double>>(&value)) {
      for (std::size_t i = 0; i < dl->size(); ++i) {
        if (i > 0) out << ',';
        out << (*dl)[i];
      }
    } else if (const auto* bag = std::get_if<Bag>(&value)) {
      out << "{bag:" << bag->size() << "}";
    }
  }
  return out.str();
}

PigContext::PigContext(mr::SimDfs* dfs, mr::ClusterConfig cluster,
                       std::size_t threads)
    : dfs_(dfs), cluster_(cluster), threads_(threads) {
  MRMC_REQUIRE(dfs != nullptr, "PigContext needs a DFS");
}

mr::JobConfig PigContext::make_config(const std::string& name,
                                      std::size_t reducers) const {
  mr::JobConfig config;
  config.name = name;
  config.num_reducers = reducers;
  config.records_per_split = 512;
  config.threads = threads_;
  config.cluster = cluster_;
  return config;
}

Relation PigContext::load_fasta(const std::string& path) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig LOAD", {{"path", path}});
  const auto records = bio::read_fasta_string(dfs_->read(path));
  Relation relation;
  relation.reserve(records.size());
  for (const auto& record : records) {
    Tuple tuple;
    tuple.fields.emplace_back(record.seq);
    tuple.fields.emplace_back(record.id);
    relation.push_back(std::move(tuple));
  }
  return relation;
}

template <typename Job>
auto PigContext::run_indexed(Job& job, const Relation& input) {
  std::vector<IndexedTuple> indexed;
  indexed.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    indexed.push_back({static_cast<long>(i), input[i]});
  }
  auto result = job.run(indexed);
  sim_time_s_ += result.stats.timeline.total_s;
  jobs_.push_back(std::move(result.stats));
  return std::move(result.output);
}

Relation PigContext::foreach_generate(const Relation& input, const Udf& udf) {
  obs::Tracer::Span span(obs::Tracer::global(),
                         std::string("pig FOREACH..GENERATE ") + udf.name(),
                         {{"tuples", std::to_string(input.size())}});
  obs::pipeline::StageScope stage(std::string("foreach-") + udf.name());
  using ForeachJob = mr::Job<IndexedTuple, long, Tuple, std::pair<long, Tuple>>;

  const Udf* udf_ptr = &udf;
  ForeachJob job(
      make_config(std::string("foreach-") + udf.name(),
                  std::max<std::size_t>(1, cluster_.reduce_slots())),
      [udf_ptr](const IndexedTuple& record, mr::Emitter<long, Tuple>& emit) {
        Bag outputs = udf_ptr->exec(record.tuple);
        MRMC_CHECK(outputs.size() < static_cast<std::size_t>(kFlattenStride),
                   "FLATTEN fan-out exceeds ordering key stride");
        long sub = 0;
        for (Tuple& out : outputs) {
          emit.emit(record.index * kFlattenStride + sub++, std::move(out));
        }
      },
      mr::identity_reduce<long, Tuple>);  // ordering keys are unique

  auto output = run_indexed(job, input);
  std::sort(output.begin(), output.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Relation relation;
  relation.reserve(output.size());
  for (auto& [key, tuple] : output) relation.push_back(std::move(tuple));
  return relation;
}

Relation PigContext::group_all(const Relation& input) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig GROUP ALL",
                         {{"tuples", std::to_string(input.size())}});
  obs::pipeline::StageScope stage("group-all");
  using GroupJob =
      mr::Job<IndexedTuple, int, std::pair<long, Tuple>, Tuple>;

  GroupJob job(
      make_config("group-all", 1),
      [](const IndexedTuple& record, mr::Emitter<int, std::pair<long, Tuple>>& emit) {
        emit.emit(0, {record.index, record.tuple});
      },
      [](const int&, std::vector<std::pair<long, Tuple>>& values,
         std::vector<Tuple>& out) {
        std::sort(values.begin(), values.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        Bag bag;
        bag.reserve(values.size());
        for (auto& [index, tuple] : values) bag.push_back(std::move(tuple));
        Tuple group;
        group.fields.emplace_back(std::move(bag));
        out.push_back(std::move(group));
      });
  return run_indexed(job, input);
}

namespace {

/// Grouping key for GROUP BY: string and long fields grouped by value,
/// doubles by exact value; other field types are rejected.
std::string group_key(const Tuple& tuple, std::size_t field) {
  MRMC_REQUIRE(field < tuple.fields.size(), "group field out of range");
  const Value& value = tuple.fields[field];
  if (const auto* s = std::get_if<std::string>(&value)) return "s:" + *s;
  if (const auto* l = std::get_if<long>(&value)) {
    return "l:" + std::to_string(*l);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    return "d:" + std::to_string(*d);
  }
  throw common::InvalidArgument("GROUP BY supports atom fields only");
}

}  // namespace

Relation PigContext::group_by(const Relation& input, std::size_t field) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig GROUP BY",
                         {{"tuples", std::to_string(input.size())},
                          {"field", std::to_string(field)}});
  obs::pipeline::StageScope stage("group-by");
  using GroupByJob =
      mr::Job<IndexedTuple, std::string, std::pair<long, Tuple>, Tuple>;

  GroupByJob job(
      make_config("group-by", std::max<std::size_t>(1, cluster_.reduce_slots())),
      [field](const IndexedTuple& record,
              mr::Emitter<std::string, std::pair<long, Tuple>>& emit) {
        emit.emit(group_key(record.tuple, field), {record.index, record.tuple});
      },
      [field](const std::string&, std::vector<std::pair<long, Tuple>>& values,
              std::vector<Tuple>& out) {
        std::sort(values.begin(), values.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        Tuple group;
        group.fields.push_back(values.front().second.fields.at(field));
        Bag bag;
        bag.reserve(values.size());
        for (auto& [index, tuple] : values) bag.push_back(std::move(tuple));
        group.fields.emplace_back(std::move(bag));
        out.push_back(std::move(group));
      });

  // Reducer partitions emit in partition order; normalize by key for
  // deterministic output.
  Relation output = run_indexed(job, input);
  std::sort(output.begin(), output.end(), [](const Tuple& a, const Tuple& b) {
    return group_key(a, 0) < group_key(b, 0);
  });
  return output;
}

void PigContext::store(const Relation& relation, const std::string& path) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig STORE", {{"path", path}});
  std::ostringstream out;
  for (const Tuple& tuple : relation) out << to_text(tuple) << '\n';
  dfs_->write(path, out.str());
}

Algorithm3Result run_algorithm3(mr::SimDfs& dfs, const std::string& input_path,
                                const std::string& out_hier,
                                const std::string& out_greedy,
                                const Algorithm3Params& params,
                                const mr::ClusterConfig& cluster,
                                std::size_t threads) {
  PigContext ctx(&dfs, cluster, threads);
  const ScriptResult script = run_script(
      ctx, algorithm3_script(),
      {{"INPUT", input_path},
       {"KMER", std::to_string(params.kmer)},
       {"NUMHASH", std::to_string(params.num_hashes)},
       {"DIV", "0"},
       {"LINK", core::linkage_name(params.linkage)},
       {"CUTOFF", obs::trace_double(params.cutoff)},  // round-trip exact
       {"OUTPUT1", out_hier},
       {"OUTPUT2", out_greedy}},
      params.seed, "algorithm3");

  Algorithm3Result result;
  result.sim_time_s = script.sim_time_s;
  result.jobs_run = script.jobs_run;
  result.recovery = script.recovery;
  const auto labels = [&script](const char* alias) {
    std::vector<std::pair<std::string, int>> out;
    for (const Tuple& tuple : script.relations.at(alias)) {
      out.emplace_back(tuple.get<std::string>(0),
                       static_cast<int>(tuple.get<long>(1)));
    }
    return out;
  };
  result.hierarchical = labels("K");
  result.greedy = labels("L");
  return result;
}

}  // namespace mrmc::pig
