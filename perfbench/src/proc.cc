#include "proc.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "support/portfile.hh"

extern char **environ;

namespace perfbench
{

namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Reap @p pid if it has exited; true when gone. */
bool
reaped(pid_t pid, int *status)
{
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    return r == pid || (r < 0 && errno == ECHILD);
}

bool
alive(pid_t pid)
{
    return ::kill(pid, 0) == 0;
}

} // anonymous namespace

ServedProcess::ServedProcess(const std::string &exe,
                             const std::vector<std::string> &args,
                             std::uint64_t trace_limit,
                             const std::string &port_file,
                             const std::string &log_path, double timeout_s)
{
    std::vector<std::string> argv_s;
    argv_s.push_back(exe);
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    std::vector<std::string> env_s;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "DDSC_", 5) != 0)
            env_s.emplace_back(*e);
    }
    env_s.push_back("DDSC_TRACE_LIMIT=" + std::to_string(trace_limit));
    std::vector<char *> envp;
    for (std::string &e : env_s)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    const int rc = ::posix_spawn(&pid_, exe.c_str(), &fa, nullptr,
                                 argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        throw std::runtime_error("cannot start " + exe + ": " +
                                 std::strerror(rc));

    const double deadline = now() + timeout_s;
    while (now() < deadline) {
        port_ = ddsc::support::readPortFile(port_file);
        if (port_ != 0)
            return;
        int status = 0;
        if (reaped(pid_, &status)) {
            pid_ = -1;
            throw std::runtime_error(exe + " exited before it was ready "
                                     "(see " + log_path + ")");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop();
    throw std::runtime_error(exe + " did not write " + port_file +
                             " in time");
}

ServedProcess::~ServedProcess()
{
    if (pid_ > 0)
        stop();
}

std::vector<pid_t>
ServedProcess::shardPids(const std::string &runtime_dir)
{
    std::vector<pid_t> out;
    std::error_code ec;
    for (const auto &e :
         std::filesystem::directory_iterator(runtime_dir, ec)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("shard-", 0) != 0 || e.path().extension() != ".pid")
            continue;
        std::ifstream in(e.path());
        long pid = 0;
        if (in >> pid && pid > 0)
            out.push_back(static_cast<pid_t>(pid));
    }
    return out;
}

int
ServedProcess::stop(const std::vector<pid_t> &extra, double timeout_s)
{
    if (pid_ <= 0)
        return -1;
    int status = 0;
    int result = -1;
    ::kill(pid_, SIGTERM);
    const double deadline = now() + timeout_s;
    bool gone = false;
    while (now() < deadline) {
        if (reaped(pid_, &status)) {
            gone = true;
            result = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!gone) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    // Fleet shards are the manager's children; a clean drain reaps
    // them, but never leave one behind if the manager had to die hard.
    for (const pid_t p : extra) {
        const double until = now() + 5.0;
        while (alive(p) && now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (alive(p))
            ::kill(p, SIGKILL);
    }
    return result;
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
selfPeakRssMb()
{
    return peakRssMb(::getpid());
}

void
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec)
        throw std::runtime_error("cannot create " + path + ": " +
                                 ec.message());
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
