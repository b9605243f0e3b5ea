#include "core/task.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/log.h"
#include "common/strings.h"
#include "fs/file_io.h"
#include "fs/merge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ser/record.h"

namespace mrs {

int ResolvePartition(const MapReduce& program, const Value& key,
                     int num_splits, const char* site) {
  int p = program.Partition(key, num_splits);
  if (p >= 0 && p < num_splits) return p;
  static obs::Counter* out_of_range =
      obs::Registry::Instance().GetCounter("mrs.partition.out_of_range");
  out_of_range->Inc();
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    MRS_LOG(kWarning, "task")
        << "Partition() returned " << p << " for num_splits=" << num_splits
        << " at " << site
        << "; remapping to split 0 (counted in mrs.partition.out_of_range; "
           "further occurrences are not logged)";
  }
  return 0;
}

Result<std::string> LocalFetch(const std::string& url) {
  if (StartsWith(url, "file://")) {
    return ReadFileToString(url.substr(7));
  }
  if (StartsWith(url, "text+file://")) {
    // Handled by FetchUrlRecords; raw content here.
    return ReadFileToString(url.substr(12));
  }
  return InvalidArgumentError("LocalFetch cannot resolve url: " + url);
}

namespace {
Result<std::vector<KeyValue>> FetchUrlRecords(const std::string& url,
                                              const UrlFetcher& fetch) {
  if (StartsWith(url, "text+file://")) {
    MRS_ASSIGN_OR_RETURN(std::string raw,
                         ReadFileToString(url.substr(12)));
    return LinesToRecords(raw);
  }
  if (!fetch) return FailedPreconditionError("no fetcher for url " + url);
  MRS_ASSIGN_OR_RETURN(std::string raw, fetch(url));
  // A spilled bucket is served as an mrsk1 frame set (one frame per run);
  // DecodeBucketBody auto-detects.  Decode failures carry the url so the
  // slave's failure report can name the bad input for lineage recovery.
  Result<std::vector<KeyValue>> decoded = DecodeBucketBody(raw);
  if (!decoded.ok()) {
    return DataLossError("bucket " + url + " payload corrupt after " +
                         std::to_string(raw.size()) +
                         " bytes: " + decoded.status().message());
  }
  return decoded;
}

/// Filesystem-safe run file path: "<dir>/<prefix>_p<split>_run<seq>.mrsk".
std::string RunFilePath(const TaskSpillContext& sc, int split, size_t seq) {
  std::string name = sc.id_prefix;
  for (char& c : name) {
    if (c == '/' || c == ':') c = '_';
  }
  return JoinPath(sc.dir, name + "_p" + std::to_string(split) + "_run" +
                              std::to_string(seq) + ".mrsk");
}

std::string RunFrameId(const TaskSpillContext& sc, int split) {
  return sc.id_prefix + "/" + std::to_string(split);
}

/// Move one input bucket's records out, fetching them when the bucket is
/// only a url and reading them back when it spilled.
Result<std::vector<KeyValue>> TakeRecords(Bucket& b, const UrlFetcher& fetch) {
  if (!b.spilled() && !b.loaded() && !b.url().empty()) {
    return FetchUrlRecords(b.url(), fetch);
  }
  MRS_RETURN_IF_ERROR(b.EnsureLoaded(fetch));
  return std::move(*b.mutable_records());
}
}  // namespace

TaskSpec TaskSpec::For(const DataSet& ds, int source) {
  TaskSpec spec;
  spec.kind = ds.kind();
  spec.options = ds.options();
  spec.dataset_id = ds.id();
  spec.source = source;
  spec.num_splits = ds.num_splits();
  return spec;
}

TaskInput TaskInput::Column(const DataSet& in, int split) {
  TaskInput input;
  if (in.kind() == DataSetKind::kFile) {
    Bucket b(0, split);
    b.set_url("text+file://" + in.file_paths().at(split));
    input.column.push_back(std::move(b));
    return input;
  }
  input.column.reserve(static_cast<size_t>(in.num_sources()));
  for (int s = 0; s < in.num_sources(); ++s) {
    input.column.push_back(in.bucket(s, split));
  }
  return input;
}

TaskInput TaskInput::Parts(const std::vector<TaskInputPart>& parts) {
  TaskInput input;
  input.column.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    Bucket b(static_cast<int>(i), 0);
    if (parts[i].inline_records) {
      *b.mutable_records() = parts[i].records;
      b.MarkLoaded();
    } else {
      b.set_url(parts[i].url);
    }
    input.column.push_back(std::move(b));
  }
  return input;
}

TaskInput TaskInput::Inline(std::vector<KeyValue> records) {
  Bucket b;
  *b.mutable_records() = std::move(records);
  b.MarkLoaded();
  TaskInput input;
  input.column.push_back(std::move(b));
  return input;
}

Result<std::vector<KeyValue>> TaskInput::Load(const UrlFetcher& fetch) && {
  std::vector<KeyValue> out;
  for (Bucket& b : column) {
    MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> recs, TakeRecords(b, fetch));
    if (out.empty()) {
      out = std::move(recs);
    } else {
      out.insert(out.end(), std::make_move_iterator(recs.begin()),
                 std::make_move_iterator(recs.end()));
    }
  }
  return out;
}

Result<std::vector<TaskInputPart>> BuildTaskInputParts(DataSet& input_ds,
                                                       int split) {
  std::vector<TaskInputPart> parts;
  if (input_ds.kind() == DataSetKind::kFile) {
    parts.push_back(
        TaskInputPart::Url("text+file://" + input_ds.file_paths().at(split)));
    return parts;
  }
  for (int s = 0; s < input_ds.num_sources(); ++s) {
    Bucket& b = input_ds.bucket(s, split);
    if (!b.url().empty()) {
      parts.push_back(TaskInputPart::Url(b.url()));
    } else if (b.loaded()) {
      parts.push_back(TaskInputPart::Inline(b.records()));
    } else if (input_ds.kind() == DataSetKind::kLocal) {
      parts.push_back(TaskInputPart::Inline(b.records()));
    } else {
      return FailedPreconditionError(
          "bucket (" + std::to_string(s) + "," + std::to_string(split) +
          ") of dataset " + std::to_string(input_ds.id()) +
          " has neither url nor records");
    }
  }
  return parts;
}

Result<std::vector<KeyValue>> SortGroupApply(std::vector<KeyValue> records,
                                             const ReduceFn& fn) {
  std::stable_sort(records.begin(), records.end(), KeyValueLess);
  std::vector<KeyValue> out;
  size_t i = 0;
  while (i < records.size()) {
    size_t j = i;
    ValueList values;
    while (j < records.size() && records[j].key == records[i].key) {
      values.push_back(std::move(records[j].value));
      ++j;
    }
    const Value& key = records[i].key;
    fn(key, values, [&](Value v) {
      out.push_back(KeyValue{key, std::move(v)});
    });
    i = j;
  }
  return out;
}

Result<ReduceFn> FindCombiner(MapReduce& program,
                              const DataSetOptions& options) {
  std::string combine_op =
      options.combine_name.empty() ? "combine" : options.combine_name;
  return program.FindReduce(combine_op);
}

namespace {
/// The map kernel: calls the named map function on every input record,
/// partitions emitted pairs into `num_splits` buckets, and optionally
/// applies the combiner per bucket.  Returns the completed bucket row.
/// With an enabled spill context, partitions that grow past the memory
/// budget are flushed to disk as sorted runs (combined first when a
/// combiner is configured — the classic combine-before-spill policy) and
/// the returned buckets carry runs instead of records.  User code runs
/// unguarded: ExecuteTask calls it inside RunUserCode.
Result<std::vector<Bucket>> RunMapTask(MapReduce& program,
                                       const DataSetOptions& options,
                                       int num_splits,
                                       const std::vector<KeyValue>& input,
                                       const TaskSpillContext* spill) {
  std::string op = options.op_name.empty() ? "map" : options.op_name;
  MRS_ASSIGN_OR_RETURN(MapFn fn, program.FindMap(op));
  ReduceFn combiner;
  if (options.use_combiner) {
    MRS_ASSIGN_OR_RETURN(combiner, FindCombiner(program, options));
  }

  const bool spilling = spill != nullptr && spill->enabled();
  std::vector<Bucket> row;
  row.reserve(num_splits);
  for (int p = 0; p < num_splits; ++p) row.emplace_back(0, p);

  // Budget accounting: emitted bytes are charged in batches of 32 records
  // (bounded overshoot), and the whole charge is released once the records
  // are on disk or handed to the caller (who re-charges what it keeps).
  int64_t charged = 0;
  int64_t pending = 0;
  size_t since_check = 0;
  size_t run_seq = 0;
  Status spill_status;

  // Flush every non-empty partition as one sorted run (combine first when
  // configured: the classic combine-before-spill policy, sound because a
  // combiner must satisfy reduce∘partial-combine = reduce).
  auto flush_all = [&]() -> Status {
    for (int p = 0; p < num_splits; ++p) {
      Bucket& b = row[static_cast<size_t>(p)];
      if (b.records().empty()) continue;
      if (options.use_combiner) {
        MRS_ASSIGN_OR_RETURN(
            *b.mutable_records(),
            SortGroupApply(std::move(*b.mutable_records()), combiner));
      }
      MRS_RETURN_IF_ERROR(b.SpillToRun(RunFilePath(*spill, p, run_seq),
                                       RunFrameId(*spill, p),
                                       /*sorted=*/true));
    }
    ++run_seq;
    spill->budget->Release(charged);
    charged = 0;
    pending = 0;
    return Status::Ok();
  };

  Emitter emit = [&](Value k, Value v) {
    if (!spill_status.ok()) return;
    int p = ResolvePartition(program, k, num_splits, "RunMapTask");
    KeyValue kv{std::move(k), std::move(v)};
    if (spilling) pending += static_cast<int64_t>(ApproxMemoryBytes(kv));
    row[static_cast<size_t>(p)].Append(std::move(kv));
    if (spilling && ++since_check >= 32) {
      since_check = 0;
      spill->budget->Charge(pending);
      charged += pending;
      pending = 0;
      if (spill->budget->ShouldSpill()) spill_status = flush_all();
    }
  };
  for (const KeyValue& kv : input) {
    fn(kv.key, kv.value, emit);
    if (!spill_status.ok()) break;
  }
  if (spilling && charged > 0) {
    spill->budget->Release(charged);
    charged = 0;
  }
  MRS_RETURN_IF_ERROR(spill_status);

  for (int p = 0; p < num_splits; ++p) {
    Bucket& b = row[static_cast<size_t>(p)];
    if (options.use_combiner && !b.records().empty()) {
      MRS_ASSIGN_OR_RETURN(
          *b.mutable_records(),
          SortGroupApply(std::move(*b.mutable_records()), combiner));
    }
    if (b.spilled() && !b.records().empty()) {
      // Tail flush: a spilled bucket leaves the task runs-only.
      MRS_RETURN_IF_ERROR(b.SpillToRun(RunFilePath(*spill, p, run_seq),
                                       RunFrameId(*spill, p),
                                       /*sorted=*/true));
    }
    if (!b.spilled()) b.MarkLoaded();
  }
  return row;
}

/// The reduce kernel: consumes a (key, value)-sorted merged stream —
/// never materializing the full input — groups consecutive equal keys,
/// applies the reduce function, and partitions output into buckets,
/// spilling them as FIFO runs under budget pressure.  User code runs
/// unguarded: ExecuteTask calls it inside RunUserCode.
Result<std::vector<Bucket>> ReduceMergedSources(
    MapReduce& program, const DataSetOptions& options, int num_splits,
    std::vector<std::unique_ptr<MergeSource>> sources,
    const TaskSpillContext* spill) {
  std::string op = options.op_name.empty() ? "reduce" : options.op_name;
  MRS_ASSIGN_OR_RETURN(ReduceFn fn, program.FindReduce(op));

  const bool spilling = spill != nullptr && spill->enabled();
  std::vector<Bucket> row;
  row.reserve(num_splits);
  for (int p = 0; p < num_splits; ++p) row.emplace_back(0, p);
  std::vector<size_t> run_seq(static_cast<size_t>(num_splits), 0);

  int64_t charged = 0;
  int64_t pending = 0;
  size_t since_check = 0;
  Status spill_status;

  // Output spills preserve emit order (FIFO runs): Job::Collect reads
  // final buckets in raw emit order, which spilling must not disturb.
  auto flush_all = [&]() -> Status {
    for (int p = 0; p < num_splits; ++p) {
      Bucket& b = row[static_cast<size_t>(p)];
      if (b.records().empty()) continue;
      MRS_RETURN_IF_ERROR(
          b.SpillToRun(RunFilePath(*spill, p, run_seq[static_cast<size_t>(p)]),
                       RunFrameId(*spill, p), /*sorted=*/false));
      ++run_seq[static_cast<size_t>(p)];
    }
    spill->budget->Release(charged);
    charged = 0;
    pending = 0;
    return Status::Ok();
  };

  auto partition_emit = [&](const Value& key, Value v) {
    if (!spill_status.ok()) return;
    int p = ResolvePartition(program, key, num_splits, "ReduceMergedSources");
    KeyValue kv{key, std::move(v)};
    if (spilling) pending += static_cast<int64_t>(ApproxMemoryBytes(kv));
    row[static_cast<size_t>(p)].Append(std::move(kv));
    if (spilling && ++since_check >= 32) {
      since_check = 0;
      spill->budget->Charge(pending);
      charged += pending;
      pending = 0;
      if (spill->budget->ShouldSpill()) spill_status = flush_all();
    }
  };

  // Stream sorted records, grouping runs of equal keys.  Only one key's
  // values are ever resident, never the whole input.
  LoserTreeMerger merger(std::move(sources));
  KeyValue kv;
  MRS_ASSIGN_OR_RETURN(bool have, merger.Next(&kv));
  while (have) {
    Value key = kv.key;
    ValueList values;
    values.push_back(std::move(kv.value));
    while (true) {
      MRS_ASSIGN_OR_RETURN(have, merger.Next(&kv));
      if (!have || kv.key != key) break;
      values.push_back(std::move(kv.value));
    }
    fn(key, values, [&](Value v) { partition_emit(key, std::move(v)); });
    MRS_RETURN_IF_ERROR(spill_status);
  }
  if (spilling && charged > 0) {
    spill->budget->Release(charged);
    charged = 0;
  }

  for (int p = 0; p < num_splits; ++p) {
    Bucket& b = row[static_cast<size_t>(p)];
    if (b.spilled() && !b.records().empty()) {
      MRS_RETURN_IF_ERROR(
          b.SpillToRun(RunFilePath(*spill, p, run_seq[static_cast<size_t>(p)]),
                       RunFrameId(*spill, p), /*sorted=*/false));
    }
    if (!b.spilled()) b.MarkLoaded();
  }
  return row;
}

/// One sorted MergeSource per input bucket (in column order), so the stable
/// merge equals a stable_sort of the concatenated input.  With an enabled
/// spill context, a url-backed bucket is staged as a sorted run, appended
/// to *staged for the caller to delete after the merge.
Result<std::vector<std::unique_ptr<MergeSource>>> BuildColumnMergeSources(
    std::vector<Bucket>& column, const UrlFetcher& fetch,
    const TaskSpillContext* spill, std::vector<SpillRun>* staged) {
  const bool spilling = spill != nullptr && spill->enabled();
  std::vector<std::unique_ptr<MergeSource>> sources;
  for (size_t i = 0; i < column.size(); ++i) {
    Bucket& b = column[i];
    bool all_sorted = b.spilled();
    for (const SpillRun& run : b.spill_runs()) all_sorted &= run.sorted;
    if (all_sorted) {
      // Stream each sorted run straight from disk.  Runs join in write
      // order; equal records are byte-identical (multiset semantics), so
      // source order only matters for determinism, which index tie-break
      // in the merger provides.
      for (const SpillRun& run : b.spill_runs()) {
        sources.push_back(std::make_unique<SpillRunSource>(run));
      }
      continue;
    }
    // Anything else — records in memory, a url, FIFO runs (never reduce
    // input in practice) — is sorted in memory.
    const bool remote = !b.spilled() && !b.loaded() && !b.url().empty();
    MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> recs, TakeRecords(b, fetch));
    std::stable_sort(recs.begin(), recs.end(), KeyValueLess);
    if (spilling && remote) {
      // Under a budget a fetched bucket goes to disk as a sorted run before
      // the next one is fetched, so the column is never resident at once.
      std::string seq = std::to_string(i);
      MRS_ASSIGN_OR_RETURN(
          SpillRun run,
          WriteSpillRun(JoinPath(spill->dir, "input_run" + seq + ".mrsk"),
                        spill->id_prefix + "/in" + seq, recs,
                        /*sorted=*/true));
      staged->push_back(run);
      sources.push_back(std::make_unique<SpillRunSource>(std::move(run)));
      continue;
    }
    sources.push_back(std::make_unique<VectorSource>(std::move(recs)));
  }
  return sources;
}
}  // namespace

Status RunUserCode(const DataSetOptions& options,
                   const std::function<Status()>& body) {
  // Make the operation's broadcast delta (iterative mode) visible to every
  // user function it runs, combiners included.
  BroadcastScope broadcast_scope(options.broadcast.get());
  // User code may run on a pool worker or a slave's executor: an escaped
  // exception must fail the task, not terminate the process.
  try {
    return body();
  } catch (const std::exception& e) {
    return InternalError(std::string("uncaught exception in user code: ") +
                         e.what());
  } catch (...) {
    return InternalError("uncaught non-standard exception in user code");
  }
}

Result<std::vector<Bucket>> ExecuteTask(MapReduce& program,
                                        const TaskSpec& spec, TaskInput input,
                                        const TaskEnv& env) {
  if (spec.kind != DataSetKind::kMap && spec.kind != DataSetKind::kReduce) {
    return InvalidArgumentError("source datasets have no tasks to run");
  }
  obs::ScopedSpan span(spec.options.op_name,
                       spec.kind == DataSetKind::kMap ? "map" : "reduce");
  span.set_task(spec.dataset_id, spec.source, spec.attempt);

  // Out-of-core execution: each task attempt gets its own spill directory,
  // so a rerun never overwrites run files a stale bucket still references.
  // Running without one would break the memory bound the task was given.
  TaskSpillContext spill;
  if (MemoryBudget::Process().active()) {
    MRS_ASSIGN_OR_RETURN(
        spill.dir, NewSpillDir(env.name + "_ds" +
                               std::to_string(spec.dataset_id) + "_t" +
                               std::to_string(spec.source) + "_a" +
                               std::to_string(spec.attempt)));
    spill.id_prefix =
        std::to_string(spec.dataset_id) + "/" + std::to_string(spec.source);
    spill.budget = &MemoryBudget::Process();
  }

  UrlFetcher fetch = [&](const std::string& url) {
    Result<std::string> got = env.fetch(url);
    if (got.ok()) span.add_bytes_in(static_cast<int64_t>(got->size()));
    return got;
  };
  std::vector<Bucket> row;
  std::vector<SpillRun> staged;
  Status status = RunUserCode(spec.options, [&]() -> Status {
    if (spec.kind == DataSetKind::kMap) {
      MRS_ASSIGN_OR_RETURN(std::vector<KeyValue> records,
                           std::move(input).Load(fetch));
      MRS_ASSIGN_OR_RETURN(row, RunMapTask(program, spec.options,
                                           spec.num_splits, records, &spill));
      return Status::Ok();
    }
    MRS_ASSIGN_OR_RETURN(
        std::vector<std::unique_ptr<MergeSource>> sources,
        BuildColumnMergeSources(input.column, fetch, &spill, &staged));
    MRS_ASSIGN_OR_RETURN(row, ReduceMergedSources(program, spec.options,
                                                  spec.num_splits,
                                                  std::move(sources), &spill));
    return Status::Ok();
  });
  for (const SpillRun& run : staged) RemoveSpillRun(run);
  MRS_RETURN_IF_ERROR(status);
  if (env.finish) MRS_RETURN_IF_ERROR(env.finish(row, span));
  return row;
}

}  // namespace mrs
