/**
 * @file
 * A potluckd child process owned by the benchmark: launched with a
 * socket in the run directory, killed with SIGKILL and reaped by its
 * destructor on every path, failed checks included.
 */
#ifndef E2EBENCH_DAEMON_H
#define E2EBENCH_DAEMON_H

#include <string>
#include <sys/types.h>
#include <vector>

namespace e2e {

/**
 * Pin the calling process (the load driver) to the first CPU it may
 * run on and keep the others for the processes it starts, so the
 * client thread and the daemon's threads never share a core and the
 * scheduler cannot move them onto one between runs. No-op with fewer
 * than two CPUs.
 */
void splitCpus();

/** In a forked child: run on the CPUs splitCpus() kept for daemons. */
void useDaemonCpus();

/**
 * Runs the calling thread on the daemon's CPUs while it lives, then
 * back on the load driver's CPU: in-process replays that stand in for
 * the daemon's work then share the cores, and whatever else runs on
 * them, with the daemon they are compared with.
 */
class OnDaemonCpus
{
  public:
    OnDaemonCpus();
    ~OnDaemonCpus();
    OnDaemonCpus(const OnDaemonCpus &) = delete;
    OnDaemonCpus &operator=(const OnDaemonCpus &) = delete;
};

class Daemon
{
  public:
    /**
     * Launch `binary --socket <socket> <args...>` with stdout and
     * stderr appended to `log_path`, then wait until the socket
     * accepts a connection. Throws std::runtime_error when the daemon
     * exits or stays unreachable for 20 s.
     */
    Daemon(const std::string &binary, const std::string &socket,
           const std::vector<std::string> &args, const std::string &log_path);

    /** SIGKILL and reap (no-op when already stopped). */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** SIGKILL, reap and remove the socket file. */
    void kill();

    pid_t pid() const { return pid_; }

    /** A `Vm*` line of /proc/<pid>/status in kB (-1 when unreadable). */
    long statusKb(const char *field) const;

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

} // namespace e2e

#endif // E2EBENCH_DAEMON_H
