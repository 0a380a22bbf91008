#include "daemon.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sched.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "ipc/transport.h"
#include "stats.h"

namespace e2e {

namespace {
cpu_set_t g_daemon_cpus;
cpu_set_t g_client_cpus;
bool g_split = false;
} // namespace

void
splitCpus()
{
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2)
        return;
    cpu_set_t mine;
    CPU_ZERO(&mine);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &all)) {
            CPU_SET(cpu, &mine);
            CPU_CLR(cpu, &all);
            break;
        }
    }
    if (::sched_setaffinity(0, sizeof(mine), &mine) != 0)
        return;
    g_daemon_cpus = all;
    g_client_cpus = mine;
    g_split = true;
}

void
useDaemonCpus()
{
    if (g_split)
        ::sched_setaffinity(0, sizeof(g_daemon_cpus), &g_daemon_cpus);
}

OnDaemonCpus::OnDaemonCpus()
{
    useDaemonCpus();
}

OnDaemonCpus::~OnDaemonCpus()
{
    if (g_split)
        ::sched_setaffinity(0, sizeof(g_client_cpus), &g_client_cpus);
}

Daemon::Daemon(const std::string &binary, const std::string &socket,
               const std::vector<std::string> &args,
               const std::string &log_path)
    : socket_(socket)
{
    std::vector<std::string> argv_s = {binary, "--socket", socket};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const uint64_t t0 = nowNs();
    pid_ = ::fork();
    if (pid_ < 0)
        throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
        // Child: die with the benchmark, log to the run directory.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        useDaemonCpus();
        int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    // Wait for the listening socket.
    while (true) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("potluckd exited during start-up (see " +
                                     log_path + ")");
        }
        try {
            potluck::FrameSocket probe = potluck::connectUnix(socket_);
            break;
        } catch (const std::exception &) {
        }
        if (nowNs() - t0 > 20'000'000'000ull) {
            kill();
            throw std::runtime_error("potluckd did not start within 20 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

Daemon::~Daemon()
{
    kill();
}

void
Daemon::kill()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
}

long
Daemon::statusKb(const char *field) const
{
    if (pid_ <= 0)
        return -1;
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    const size_t n = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':') {
            return std::stol(line.substr(n + 1));
        }
    }
    return -1;
}

} // namespace e2e
