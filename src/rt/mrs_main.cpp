#include "rt/mrs_main.h"

#include <csignal>
#include <cstdio>

#include "common/clock.h"
#include "common/log.h"
#include "core/job.h"
#include "core/mock_runner.h"
#include "core/serial_runner.h"
#include "core/thread_runner.h"
#include "fs/file_io.h"
#include "fs/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/cluster.h"

namespace mrs {

namespace {

Status RunSerial(MapReduce* program) {
  Job job(program, std::make_unique<SerialRunner>(program));
  int parallel = static_cast<int>(program->opts().GetInt("mrs-num-slaves", 2) *
                                  program->opts().GetInt("mrs-tasks-per-slave", 2));
  job.set_default_parallelism(parallel);
  return program->Run(job);
}

Status RunThread(MapReduce* program, int num_workers) {
  Job job(program, std::make_unique<ThreadRunner>(program, num_workers));
  // Task decomposition must match the serial runner (same default split
  // count) so output layout is identical regardless of worker count.
  int parallel = static_cast<int>(program->opts().GetInt("mrs-num-slaves", 2) *
                                  program->opts().GetInt("mrs-tasks-per-slave", 2));
  job.set_default_parallelism(parallel);
  return program->Run(job);
}

Status RunMockParallel(MapReduce* program) {
  std::string tmpdir = program->opts().GetString("mrs-tmpdir");
  bool fresh = tmpdir.empty();
  if (fresh) {
    MRS_ASSIGN_OR_RETURN(tmpdir, MakeTempDir("mrs_mock_"));
  } else {
    MRS_RETURN_IF_ERROR(EnsureDir(tmpdir));
  }
  Status status;
  {
    Job job(program, std::make_unique<MockParallelRunner>(program, tmpdir));
    int parallel = static_cast<int>(
        program->opts().GetInt("mrs-num-slaves", 2) *
        program->opts().GetInt("mrs-tasks-per-slave", 2));
    job.set_default_parallelism(parallel);
    status = program->Run(job);
  }
  if (fresh) RemoveTree(tmpdir);
  return status;
}

/// Elasticity/health flags -> Master::Config.
void ApplyMasterOptions(const Options& opts, Master::Config* config) {
  config->slave_timeout = opts.GetDouble("mrs-slave-timeout", 15.0);
  config->missed_ping_limit =
      static_cast<int>(opts.GetInt("mrs-missed-ping-limit", 5));
  config->drain_timeout = opts.GetDouble("mrs-drain-timeout", 10.0);
  config->speculation_quantile =
      opts.GetDouble("mrs-speculation-quantile", 0.9);
  config->quarantine_failure_threshold =
      static_cast<int>(opts.GetInt("mrs-quarantine-failures", 3));
  config->probation_seconds = opts.GetDouble("mrs-probation-seconds", 5.0);
}

void ApplySlaveOptions(const Options& opts, Slave::Config* config) {
  config->ping_interval = opts.GetDouble("mrs-ping-interval", 2.0);
  config->shared_dir = opts.GetString("mrs-shared-dir");
}

Status RunMasterSlave(const ProgramFactory& factory, MapReduce* program) {
  ClusterLauncher::Config config;
  config.num_slaves =
      static_cast<int>(program->opts().GetInt("mrs-num-slaves", 2));
  ApplyMasterOptions(program->opts(), &config.master);
  ApplySlaveOptions(program->opts(), &config.slave);
  MRS_ASSIGN_OR_RETURN(
      std::unique_ptr<ClusterLauncher> cluster,
      ClusterLauncher::Start(factory, program->opts(), config));

  Job job(program, std::make_unique<MasterRunner>(&cluster->master()));
  job.set_default_parallelism(static_cast<int>(
      config.num_slaves * program->opts().GetInt("mrs-tasks-per-slave", 2)));
  Status status = program->Run(job);
  cluster->Shutdown();
  return status;
}

Status RunMasterProcess(MapReduce* program) {
  Master::Config config;
  config.port = static_cast<uint16_t>(program->opts().GetInt("mrs-port", 0));
  ApplyMasterOptions(program->opts(), &config);
  MRS_ASSIGN_OR_RETURN(std::unique_ptr<Master> master, Master::Start(config));

  // The run-script handshake (paper Program 3): write host:port to the
  // port file so slave launchers can find us.
  std::string port_file = program->opts().GetString("mrs-port-file");
  if (!port_file.empty()) {
    MRS_RETURN_IF_ERROR(
        WriteFileAtomic(port_file, master->addr().ToString() + "\n"));
  }

  int num_slaves =
      static_cast<int>(program->opts().GetInt("mrs-num-slaves", 1));
  MRS_RETURN_IF_ERROR(master->WaitForSlaves(num_slaves, /*timeout=*/120.0));

  Job job(program, std::make_unique<MasterRunner>(master.get()));
  job.set_default_parallelism(static_cast<int>(
      num_slaves * program->opts().GetInt("mrs-tasks-per-slave", 2)));
  Status status = program->Run(job);
  master->Shutdown();
  return status;
}

Status RunSlaveProcess(MapReduce* program) {
  std::string master_addr = program->opts().GetString("mrs-master");
  if (master_addr.empty()) {
    return InvalidArgumentError("slave implementation requires --mrs-master");
  }
  Slave::Config config;
  MRS_ASSIGN_OR_RETURN(config.master, SocketAddr::Parse(master_addr));
  ApplySlaveOptions(program->opts(), &config);
  // SIGTERM means "retire gracefully" (a preempting scheduler's warning
  // shot): drain instead of dying, so hosted buckets are re-homed and the
  // exit is clean.  The handler is one atomic store — signal-safe.
  struct sigaction action = {};
  action.sa_handler = [](int) { RequestProcessDrain(); };
  sigaction(SIGTERM, &action, nullptr);
  MRS_ASSIGN_OR_RETURN(std::unique_ptr<Slave> slave,
                       Slave::Start(program, config));
  return slave->Run();
}

}  // namespace

Status RunProgram(const ProgramFactory& factory, MapReduce* program,
                  const RunConfig& config) {
  if (config.impl == "serial") return RunSerial(program);
  if (config.impl == "thread") {
    Job job(program,
            std::make_unique<ThreadRunner>(program, config.num_workers));
    job.set_default_parallelism(config.num_slaves * config.tasks_per_slave);
    return program->Run(job);
  }
  if (config.impl == "mockparallel") {
    std::string tmpdir = config.tmpdir;
    bool fresh = tmpdir.empty();
    if (fresh) {
      MRS_ASSIGN_OR_RETURN(tmpdir, MakeTempDir("mrs_mock_"));
    }
    Status status;
    {
      Job job(program, std::make_unique<MockParallelRunner>(program, tmpdir));
      job.set_default_parallelism(config.num_slaves * config.tasks_per_slave);
      status = program->Run(job);
    }
    if (fresh) RemoveTree(tmpdir);
    return status;
  }
  if (config.impl == "masterslave") {
    ClusterLauncher::Config cluster_config;
    cluster_config.num_slaves = config.num_slaves;
    cluster_config.first_slave_faults = config.first_slave_faults;
    if (config.shared_files) {
      MRS_ASSIGN_OR_RETURN(cluster_config.slave.shared_dir,
                           MakeTempDir("mrs_shared_"));
    }
    MRS_ASSIGN_OR_RETURN(
        std::unique_ptr<ClusterLauncher> cluster,
        ClusterLauncher::Start(factory, program->opts(), cluster_config));
    Job job(program, std::make_unique<MasterRunner>(&cluster->master()));
    job.set_default_parallelism(config.num_slaves * config.tasks_per_slave);
    Status status = program->Run(job);
    cluster->Shutdown();
    if (config.shared_files) {
      RemoveTree(cluster_config.slave.shared_dir);
    }
    return status;
  }
  return InvalidArgumentError("unknown implementation: " + config.impl);
}

int RunMain(const ProgramFactory& factory, int argc,
            const char* const* argv) {
  OptionParser parser;
  AddStandardMrsOptions(&parser);

  std::unique_ptr<MapReduce> program = factory();
  program->AddOptions(&parser);

  Result<Options> opts = parser.Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n%s", opts.status().ToString().c_str(),
                 parser.Usage(argc > 0 ? argv[0] : "mrs-program").c_str());
    return 2;
  }
  if (opts->GetBool("help")) {
    std::fprintf(stdout, "%s",
                 parser.Usage(argc > 0 ? argv[0] : "mrs-program").c_str());
    return 0;
  }
  if (opts->GetBool("mrs-debug")) {
    SetLogLevel(LogLevel::kDebug);
  } else if (opts->GetBool("mrs-verbose")) {
    SetLogLevel(LogLevel::kInfo);
  }
  if (opts->GetBool("mrs-no-metrics")) {
    obs::SetMetricsEnabled(false);
  }
  std::string trace_out = opts->GetString("trace-out");
  if (!trace_out.empty()) {
    obs::SetTracingEnabled(true);
  }
  // The process budget defaults from $MRS_MEMORY_BUDGET; an explicit flag
  // wins.
  std::string budget_text = opts->GetString("mrs-memory-budget");
  if (!budget_text.empty() && budget_text != "0") {
    Result<int64_t> budget = ParseByteSize(budget_text);
    if (!budget.ok()) {
      std::fprintf(stderr, "error: --mrs-memory-budget: %s\n",
                   budget.status().ToString().c_str());
      return 2;
    }
    MemoryBudget::Process().set_limit(*budget);
  }

  Status init = program->Init(*opts);
  if (!init.ok()) {
    std::fprintf(stderr, "error: %s\n", init.ToString().c_str());
    return 2;
  }

  std::string impl = opts->GetString("mrs-impl", "serial");
  Stopwatch watch;
  Status status;
  if (impl == "serial") {
    status = RunSerial(program.get());
  } else if (impl == "thread") {
    status = RunThread(program.get(),
                       static_cast<int>(opts->GetInt("mrs-workers", 0)));
  } else if (impl == "mockparallel") {
    status = RunMockParallel(program.get());
  } else if (impl == "masterslave") {
    status = RunMasterSlave(factory, program.get());
  } else if (impl == "master") {
    status = RunMasterProcess(program.get());
  } else if (impl == "slave") {
    status = RunSlaveProcess(program.get());
  } else if (impl == "bypass") {
    status = program->Bypass();
  } else {
    std::fprintf(stderr, "error: unknown --mrs-impl '%s'\n", impl.c_str());
    return 2;
  }
  if (opts->GetBool("mrs-timing")) {
    std::fprintf(stderr, "[mrs] %s run took %.3f s\n", impl.c_str(),
                 watch.ElapsedSeconds());
  }
  if (!trace_out.empty()) {
    if (obs::WriteChromeTraceFile(trace_out)) {
      std::fprintf(stderr, "[mrs] wrote %zu trace spans to %s\n",
                   obs::TraceBuffer::Instance().size(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "[mrs] failed to write trace file %s\n",
                   trace_out.c_str());
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace mrs
