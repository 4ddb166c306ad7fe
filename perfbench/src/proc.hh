/**
 * @file
 * Child-process control for the serving workloads: start ddsc-served,
 * wait for its port file, read its peak RSS, and stop it (and any
 * fleet shards) so that no process outlives the run.
 */

#ifndef PERFBENCH_PROC_HH
#define PERFBENCH_PROC_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** A running ddsc-served (single server or fleet manager). */
class ServedProcess
{
  public:
    /**
     * Start @p exe with @p args, DDSC_TRACE_LIMIT=@p trace_limit in its
     * environment, stdout/stderr appended to @p log_path, and wait up
     * to @p timeout_s for @p port_file to name a port.  Throws
     * std::runtime_error when it does not come up.
     */
    ServedProcess(const std::string &exe,
                  const std::vector<std::string> &args,
                  std::uint64_t trace_limit, const std::string &port_file,
                  const std::string &log_path, double timeout_s = 60.0);
    ~ServedProcess();

    ServedProcess(const ServedProcess &) = delete;
    ServedProcess &operator=(const ServedProcess &) = delete;

    std::uint16_t port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** Pids of fleet shards found as <runtime_dir>/shard-*.pid. */
    static std::vector<pid_t> shardPids(const std::string &runtime_dir);

    /** SIGTERM, wait up to @p timeout_s, then SIGKILL; also kills
     *  @p extra (fleet shards) that are still alive afterwards.
     *  Returns the exit status (or -1 when it had to be killed). */
    int stop(const std::vector<pid_t> &extra = {}, double timeout_s = 30.0);

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/** VmHWM of @p pid in MiB (0 when unreadable). */
double peakRssMb(pid_t pid);

/** VmHWM of this process in MiB. */
double selfPeakRssMb();

/** mkdir -p; throws on failure. */
void makeDirs(const std::string &path);

/** rm -rf, ignoring errors. */
void removeTree(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_PROC_HH
