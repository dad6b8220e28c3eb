// Crash-safety acceptance tests.  The heart of the PR: a bbmg_served
// process is SIGKILLed at randomized points mid-stream (seeds 0..15),
// restarted on the same data directory, and the client resumes via
// sequence numbers — the final served model must be byte-identical to an
// uninterrupted run.  Also covers graceful SIGTERM drain (exit 0, zero
// replay on restart), in-process restart recovery, and duplicate-resend
// idempotence.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/error.hpp"
#include "serve/resilient_client.hpp"
#include "serve/server.hpp"
#include "support/gm_trace.hpp"

#ifndef BBMG_SERVED_BIN
#error "BBMG_SERVED_BIN must point at the bbmg_served executable"
#endif

namespace bbmg {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bbmg_crash_" + name;
  fs::remove_all(dir);
  return dir;
}

/// The model an uninterrupted learner (server defaults) produces.
DependencyMatrix baseline_model(const Trace& trace) {
  const SessionConfig cfg = OpenSessionMsg{}.to_session_config();
  RobustOnlineLearner learner(trace.task_names(), cfg.robust);
  for (const Period& p : trace.periods()) {
    learner.observe_raw_period(p.to_events());
  }
  return learner.full_snapshot().result.lub();
}

/// A bbmg_served child process with captured stdout.
struct ServerProcess {
  pid_t pid{-1};
  int out_fd{-1};
  std::uint16_t port{0};
  std::string banner;

  static ServerProcess start(const std::string& data_dir,
                             const std::vector<std::string>& extra = {}) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) raise("test: pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) raise("test: fork failed");
    if (pid == 0) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      std::vector<std::string> args{BBMG_SERVED_BIN, "0",          "2",
                                    "64",            "--data-dir", data_dir,
                                    "--fsync-every", "1"};
      args.insert(args.end(), extra.begin(), extra.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(BBMG_SERVED_BIN, argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    ServerProcess proc;
    proc.pid = pid;
    proc.out_fd = pipe_fds[0];
    proc.wait_for_listen();
    return proc;
  }

  void wait_for_listen() {
    const std::string needle = "listening on 127.0.0.1:";
    char buf[512];
    while (banner.find(needle) == std::string::npos) {
      const ssize_t n = ::read(out_fd, buf, sizeof buf);
      if (n <= 0) {
        raise("test: server exited before listening; output so far:\n" +
              banner);
      }
      banner.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t at = banner.find(needle) + needle.size();
    port = static_cast<std::uint16_t>(
        std::strtoul(banner.c_str() + at, nullptr, 10));
  }

  /// Drain whatever stdout remains (after the child exited).
  void drain_output() {
    char buf[512];
    ssize_t n;
    while ((n = ::read(out_fd, buf, sizeof buf)) > 0) {
      banner.append(buf, static_cast<std::size_t>(n));
    }
  }

  void kill_hard() {
    if (pid < 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    close_out();
  }

  /// SIGTERM graceful drain; returns the child's exit code.
  int terminate() {
    if (pid < 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    drain_output();
    close_out();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  void close_out() {
    if (out_fd >= 0) ::close(out_fd);
    out_fd = -1;
  }

  ~ServerProcess() {
    if (pid > 0) kill_hard();
    close_out();
  }

  ServerProcess() = default;
  ServerProcess(ServerProcess&& o) noexcept
      : pid(o.pid), out_fd(o.out_fd), port(o.port),
        banner(std::move(o.banner)) {
    o.pid = -1;
    o.out_fd = -1;
  }
  ServerProcess& operator=(ServerProcess&& o) noexcept {
    if (this != &o) {
      if (pid > 0) kill_hard();
      close_out();
      pid = o.pid;
      out_fd = o.out_fd;
      port = o.port;
      banner = std::move(o.banner);
      o.pid = -1;
      o.out_fd = -1;
    }
    return *this;
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
};

RetryConfig fast_retries(std::uint64_t seed) {
  RetryConfig config;
  config.max_retries = 8;
  config.base_backoff_ms = 5;
  config.max_backoff_ms = 100;
  config.request_timeout_ms = 5000;
  config.seed = seed;
  return config;
}

// -- the acceptance criterion ----------------------------------------------

TEST(CrashRecovery, SigkillAtRandomizedPointsRecoversByteIdenticalModels) {
  const std::size_t kPeriods = 24;
  const Trace trace = gm_trace(21, kPeriods);
  const DependencyMatrix want = baseline_model(trace);

  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string dir = fresh_dir("kill_" + std::to_string(seed));
    ServerProcess server =
        ServerProcess::start(dir, {"--snapshot-every", "4"});

    ResilientClient client(fast_retries(seed));
    client.connect("127.0.0.1", server.port);
    const std::uint32_t session = client.open_session(trace.task_names());

    // Kill somewhere strictly inside the stream, varied per seed.
    const std::size_t kill_at = 1 + (seed * 7 + 3) % (kPeriods - 1);
    for (std::size_t i = 0; i < kPeriods; ++i) {
      if (i == kill_at) {
        server.kill_hard();
        server = ServerProcess::start(dir, {"--snapshot-every", "4"});
        client.set_endpoint("127.0.0.1", server.port);
      }
      client.send_period(session, trace.periods()[i].to_events());
    }
    const std::uint64_t high_water = client.flush(session);
    EXPECT_EQ(high_water, kPeriods);
    EXPECT_EQ(client.unacked(session), 0u);

    const WireSnapshot snap = client.query(session, /*drain=*/true);
    EXPECT_TRUE(snap.lub == want)
        << "recovered model diverged from the uninterrupted baseline";
    EXPECT_EQ(snap.periods_seen, kPeriods);
    EXPECT_EQ(server.terminate(), 0);
  }
}

TEST(CrashRecovery, GracefulSigtermDrainsCheckpointsAndExitsZero) {
  const Trace trace = gm_trace(4, 12);
  const DependencyMatrix want = baseline_model(trace);
  const std::string dir = fresh_dir("graceful");

  std::uint32_t session = 0;
  {
    ServerProcess server = ServerProcess::start(dir);
    ResilientClient client(fast_retries(1));
    client.connect("127.0.0.1", server.port);
    session = client.open_session(trace.task_names());
    for (const Period& p : trace.periods()) {
      client.send_period(session, p.to_events());
    }
    client.flush(session);
    client.disconnect();
    EXPECT_EQ(server.terminate(), 0);
    EXPECT_NE(server.banner.find("checkpointed"), std::string::npos);
  }

  // Restart: everything is in the shutdown snapshot, nothing to replay.
  ServerProcess server = ServerProcess::start(dir);
  EXPECT_NE(server.banner.find("recovery: 1 sessions, 0 periods replayed"),
            std::string::npos)
      << server.banner;

  ResilientClient client(fast_retries(2));
  client.connect("127.0.0.1", server.port);
  client.attach_session(session);
  const WireSnapshot snap = client.query(session, /*drain=*/false);
  EXPECT_TRUE(snap.lub == want);
  EXPECT_EQ(snap.periods_seen, trace.num_periods());
  EXPECT_EQ(server.terminate(), 0);
}

// -- in-process restart + idempotence --------------------------------------

ServerConfig durable_server_config(const std::string& dir) {
  ServerConfig config;
  config.manager.workers = 2;
  config.manager.durable.dir = dir;
  config.manager.durable.fsync_every = 1;
  config.manager.durable.snapshot_every = 4;
  return config;
}

TEST(CrashRecovery, InProcessRestartContinuesTheSession) {
  const Trace trace = gm_trace(17, 10);
  const DependencyMatrix want = baseline_model(trace);
  const std::string dir = fresh_dir("inprocess");

  std::uint32_t session = 0;
  {
    Server server(durable_server_config(dir));
    server.start();
    ServeClient client;
    client.connect("127.0.0.1", server.port());
    session = client.open_session(trace.task_names());
    for (std::size_t i = 0; i < 6; ++i) {
      client.send_period(session, trace.periods()[i].to_events(), i + 1);
    }
    EXPECT_EQ(client.resume(session), 6u);
    client.disconnect();
    server.stop();  // destructor path: no checkpoint_all — WAL carries it
  }

  Server server(durable_server_config(dir));
  EXPECT_EQ(server.manager().recovery().sessions, 1u);
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint64_t high_water = client.resume(session);
  EXPECT_EQ(high_water, 6u);
  for (std::size_t i = 6; i < 10; ++i) {
    client.send_period(session, trace.periods()[i].to_events(), i + 1);
  }
  const WireSnapshot snap = client.query(session, /*drain=*/true);
  EXPECT_TRUE(snap.lub == want);
  EXPECT_EQ(snap.periods_seen, trace.num_periods());
  server.stop();
}

TEST(CrashRecovery, DuplicateResendsAreDroppedIdempotently) {
  const Trace trace = gm_trace(29, 5);
  const std::string dir = fresh_dir("dedup");
  Server server(durable_server_config(dir));
  server.start();

  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  for (std::size_t i = 0; i < 3; ++i) {
    client.send_period(session, trace.periods()[i].to_events(), i + 1);
  }
  EXPECT_EQ(client.resume(session), 3u);

  // A reconnecting client replays its unacked tail: all duplicates.
  for (std::size_t i = 0; i < 3; ++i) {
    client.send_period(session, trace.periods()[i].to_events(), i + 1);
  }
  EXPECT_EQ(client.resume(session), 3u);
  EXPECT_EQ(client.query(session, true).periods_seen, 3u);

  // The next fresh sequence number still applies.
  client.send_period(session, trace.periods()[3].to_events(), 4);
  EXPECT_EQ(client.resume(session), 4u);
  EXPECT_EQ(client.query(session, true).periods_seen, 4u);
  server.stop();
}

TEST(CrashRecovery, UnsequencedSubmissionsStillWorkAgainstDurableServer) {
  // v1-style clients (seq 0) must keep working when durability is on.
  const Trace trace = gm_trace(31, 6);
  const std::string dir = fresh_dir("unsequenced");
  Server server(durable_server_config(dir));
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  for (const Period& p : trace.periods()) {
    client.send_period(session, p.to_events());  // seq 0 = unsequenced
  }
  const WireSnapshot snap = client.query(session, /*drain=*/true);
  EXPECT_EQ(snap.periods_seen, trace.num_periods());
  EXPECT_TRUE(snap.lub == baseline_model(trace));
  server.stop();
}

}  // namespace
}  // namespace bbmg
