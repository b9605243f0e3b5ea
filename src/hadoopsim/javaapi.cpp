#include "hadoopsim/javaapi.h"

#include <algorithm>

#include "common/log.h"
#include "fs/file_io.h"
#include "ser/record.h"

namespace mrs {
namespace javaapi {

Value ToValue(const Text& t) { return Value(t.toString()); }
Value ToValue(const IntWritable& w) { return Value(w.get()); }
Value ToValue(const LongWritable& w) { return Value(w.get()); }

void FileInputFormat::addInputPath(Job& job, const Path& path) {
  job.input_paths_.push_back(path.toString());
}

void FileOutputFormat::setOutputPath(Job& job, const Path& path) {
  job.output_path_ = path.toString();
}

Result<std::unique_ptr<Job>> Job::getInstance(const Configuration& conf,
                                              const std::string& name) {
  auto job = std::unique_ptr<Job>(new Job());
  job->conf_ = conf;
  job->name_ = name;
  return job;
}

Status Job::Validate() const {
  if (jar_class_.empty()) {
    return FailedPreconditionError("setJarByClass was not called");
  }
  if (!mapper_factory_) {
    return FailedPreconditionError("setMapperClass was not called");
  }
  if (!reducer_factory_) {
    return FailedPreconditionError("setReducerClass was not called");
  }
  if (output_key_class_.empty() || output_value_class_.empty()) {
    return FailedPreconditionError(
        "setOutputKeyClass / setOutputValueClass were not called");
  }
  if (input_paths_.empty()) {
    return FailedPreconditionError("no input path (FileInputFormat)");
  }
  if (output_path_.empty()) {
    return FailedPreconditionError("no output path (FileOutputFormat)");
  }
  return Status::Ok();
}

Result<bool> Job::waitForCompletion(bool verbose) {
  MRS_RETURN_IF_ERROR(Validate());

  // Hadoop's input loader expects a flat directory: reject nested
  // directories, the paper's WordCount pain point (§V-B).
  std::vector<std::string> files;
  int64_t input_bytes = 0;
  for (const std::string& path : input_paths_) {
    if (IsDirectory(path)) {
      MRS_ASSIGN_OR_RETURN(std::vector<std::string> listing,
                           ListFilesRecursive(path));
      for (const std::string& f : listing) {
        std::string rest = f.substr(path.size());
        if (std::count(rest.begin(), rest.end(), '/') > 1) {
          return InvalidArgumentError(
              "input directory is not flat: " + f +
              " (Hadoop's FileInputFormat does not recurse)");
        }
        files.push_back(f);
      }
    } else {
      files.push_back(path);
    }
  }
  if (files.empty()) return InvalidArgumentError("no input files");

  // ---- LocalJobRunner: really execute map / combine / reduce ----------
  std::vector<KeyValue> map_output;
  int64_t map_output_bytes = 0;
  {
    std::unique_ptr<Mapper> mapper = mapper_factory_();
    Context context(&map_output);
    for (const std::string& file : files) {
      MRS_ASSIGN_OR_RETURN(std::string content, ReadFileToString(file));
      input_bytes += static_cast<int64_t>(content.size());
      for (const KeyValue& kv : LinesToRecords(content)) {
        LongWritable key(kv.key.AsInt());
        Text value(std::string(kv.value.AsString()));
        mapper->map(key, value, context);
      }
    }
  }

  auto run_reduce = [&](Reducer& reducer, std::vector<KeyValue> records)
      -> std::vector<KeyValue> {
    std::stable_sort(records.begin(), records.end(), KeyValueLess);
    std::vector<KeyValue> out;
    Context context(&out);
    size_t i = 0;
    while (i < records.size()) {
      size_t j = i;
      std::vector<IntWritable> values;
      while (j < records.size() && records[j].key == records[i].key) {
        values.emplace_back(records[j].value.AsInt());
        ++j;
      }
      Text key(std::string(records[i].key.AsString()));
      reducer.reduce(key, values, context);
      i = j;
    }
    return out;
  };

  if (combiner_factory_) {
    std::unique_ptr<Reducer> combiner = combiner_factory_();
    map_output = run_reduce(*combiner, std::move(map_output));
  }
  for (const KeyValue& kv : map_output) {
    map_output_bytes +=
        static_cast<int64_t>(kv.key.Repr().size() + kv.value.Repr().size());
  }
  {
    std::unique_ptr<Reducer> reducer = reducer_factory_();
    output_ = run_reduce(*reducer, std::move(map_output));
  }
  int64_t output_bytes = 0;
  for (const KeyValue& kv : output_) {
    output_bytes +=
        static_cast<int64_t>(kv.key.Repr().size() + kv.value.Repr().size());
  }
  if (!output_path_.empty() && output_path_ != "/dev/null") {
    MRS_RETURN_IF_ERROR(EnsureDir(output_path_));
    MRS_RETURN_IF_ERROR(WriteFileAtomic(JoinPath(output_path_, "part-r-00000"),
                                        EncodeTextRecords(output_)));
  }

  // ---- Cluster latency from the DES -----------------------------------
  hadoopsim::ClusterConfig cluster_config;
  hadoopsim::JobSpec spec;
  spec.num_map_tasks = static_cast<int>(files.size());
  spec.num_reduce_tasks = num_reduce_tasks_;
  spec.map_input_bytes = input_bytes;
  spec.map_output_bytes = map_output_bytes;
  spec.reduce_output_bytes = output_bytes;
  spec.num_input_files = static_cast<int>(files.size());
  spec.num_input_dirs = static_cast<int>(input_paths_.size());
  spec.stage_in_bytes = input_bytes;   // copy into HDFS first
  spec.stage_out_bytes = output_bytes; // and back out
  hadoopsim::HadoopCluster cluster(cluster_config);
  MRS_ASSIGN_OR_RETURN(timing_, cluster.RunJob(spec));

  if (verbose) {
    MRS_LOG(kInfo, "javaapi")
        << "job " << name_ << " complete: " << output_.size()
        << " output records, simulated " << timing_.total << "s";
  }
  return true;
}

}  // namespace javaapi
}  // namespace mrs
