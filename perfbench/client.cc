// perfbench_client — the benchmark's single client process for csq_serve.
//
// Forks the server (the argv after "--"), drives it over its stdin/stdout
// pipes from ONE thread, and records client-side timestamps:
//
//   set-up     spawn -> first `ping` answered -> warm-up lines answered
//              (closed loop). Repeated --setup-reps times with a fresh
//              server; every rep but the last is shut down again, the last
//              one is measured.
//   open loop  --open lines sent at Poisson(--rate) arrival times drawn
//              from --seed; each request is timed from its *scheduled*
//              send time, and the generator's own lateness is recorded.
//   closed     --closed lines with --window requests outstanding.
//
// Then it closes the server's stdin (EOF drain), reads every remaining
// response, reaps the server with wait4() and reports its exit status,
// peak RSS and CPU time. Outputs, for the run.py orchestrator:
//
//   <out>.responses  every response line of the measured server, in arrival
//                    order, byte for byte
//   <out>.lat        one line per open-loop request:
//                    "<line index> <latency_ns> <late_ns>"
//   <out>.json       phase timings, counts, exit status, peak RSS, CPU time
//
// Request ids must be the decimal index of the line in --lines (the
// generator writes them that way); the set-up ping uses id "setup".
//
//   perfbench_client --lines FILE --warm N --open N --rate R --closed N
//       --window W --seed S --setup-reps K [--unlink FILE] --out PREFIX
//       -- <server> [server flags...]
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

namespace {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

pid_t g_server = -1;  // the live server, killed and reaped by die()
constexpr std::int64_t kStallNs = 10000000000LL;  // 10 s without an answer

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "perfbench_client: " << msg << "\n";
  if (g_server > 0) {
    kill(g_server, SIGKILL);
    int st = 0;
    waitpid(g_server, &st, 0);
  }
  std::exit(2);
}

struct Options {
  std::string lines_file;
  std::string out;
  std::string unlink_file;
  long warm = 0;
  long open = 0;
  long closed = 0;
  double rate = 1000.0;
  long window = 1;
  std::uint64_t seed = 1;
  int setup_reps = 1;
  std::vector<std::string> server_argv;
};

long to_long(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || x < 0) die("flag " + flag + " needs a count, got '" + v + "'");
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--") {
      ++i;
      break;
    }
    if (i + 1 >= argc) die("flag " + k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--lines") o.lines_file = v;
    else if (k == "--out") o.out = v;
    else if (k == "--unlink") o.unlink_file = v;
    else if (k == "--warm") o.warm = to_long(k, v);
    else if (k == "--open") o.open = to_long(k, v);
    else if (k == "--closed") o.closed = to_long(k, v);
    else if (k == "--window") o.window = std::max(1L, to_long(k, v));
    else if (k == "--seed") o.seed = static_cast<std::uint64_t>(to_long(k, v));
    else if (k == "--setup-reps") o.setup_reps = static_cast<int>(std::max(1L, to_long(k, v)));
    else if (k == "--rate") {
      o.rate = std::atof(v.c_str());
      if (!(o.rate > 0.0)) die("--rate must be positive");
    } else {
      die("unknown flag " + k);
    }
  }
  for (; i < argc; ++i) o.server_argv.emplace_back(argv[i]);
  if (o.server_argv.empty()) die("missing server command after --");
  if (o.lines_file.empty() || o.out.empty()) die("--lines and --out are required");
  return o;
}

// One forked server with non-blocking pipe ends on our side.
class ServerProcess {
 public:
  explicit ServerProcess(const std::vector<std::string>& argv) {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) die("pipe failed");
    pid_ = fork();
    if (pid_ < 0) die("fork failed");
    if (pid_ == 0) {
      dup2(in_pipe[0], STDIN_FILENO);
      dup2(out_pipe[1], STDOUT_FILENO);
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      execv(args[0], args.data());
      std::perror("exec");
      _exit(127);
    }
    g_server = pid_;
    close(in_pipe[0]);
    close(out_pipe[1]);
    to_ = in_pipe[1];
    from_ = out_pipe[0];
    fcntl(to_, F_SETFL, fcntl(to_, F_GETFL) | O_NONBLOCK);
    fcntl(from_, F_SETFL, fcntl(from_, F_GETFL) | O_NONBLOCK);
  }
  ~ServerProcess() {
    if (to_ >= 0) close(to_);
    if (from_ >= 0) close(from_);
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      int st = 0;
      waitpid(pid_, &st, 0);
      g_server = -1;
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int to() const { return to_; }
  int from() const { return from_; }
  void kill_now() { kill(pid_, SIGKILL); }
  void close_stdin() {
    if (to_ >= 0) close(to_);
    to_ = -1;
  }
  // Reap; returns the raw wait status and fills the peak RSS in KiB and
  // the CPU time (user + system) in seconds.
  int reap(long* maxrss_kb, double* cpu_s) {
    int st = 0;
    rusage ru{};
    while (wait4(pid_, &st, 0, &ru) < 0) {
      if (errno != EINTR) die("wait4 failed");
    }
    reaped_ = true;
    g_server = -1;
    *maxrss_kb = ru.ru_maxrss;
    *cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    return st;
  }

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  bool reaped_ = false;
};

// Non-blocking line pump over one ServerProcess.
class Pump {
 public:
  explicit Pump(ServerProcess& p) : p_(p) {}

  // Queue bytes for the server; they go out on the next step().
  void send(const std::string& line, long index) {
    out_ += line;
    out_ += '\n';
    pending_.push_back({sent_bytes_ + out_.size(), index});
  }

  // Write what we can, read what is there, block at most `timeout_ns` in
  // ppoll. Completed lines are appended to `lines` (recv time in `t_recv`);
  // lines fully written since the last call are reported through `written`
  // as (line index, time the write completed).
  // Returns false once the server closed its stdout.
  bool step(std::int64_t timeout_ns, std::vector<std::string>* lines, std::int64_t* t_recv,
            std::vector<std::pair<long, std::int64_t>>* written) {
    flush_out(written);
    pollfd fds[2];
    nfds_t n = 0;
    fds[n++] = {p_.from(), POLLIN, 0};
    const bool want_write = !out_.empty() && p_.to() >= 0;
    if (want_write) fds[n++] = {p_.to(), POLLOUT, 0};
    timespec ts{};
    if (timeout_ns > 0) {
      ts.tv_sec = timeout_ns / 1000000000LL;
      ts.tv_nsec = timeout_ns % 1000000000LL;
    }
    const int r = ppoll(fds, n, timeout_ns < 0 ? nullptr : &ts, nullptr);
    if (r < 0 && errno != EINTR) die("ppoll failed");
    if (want_write) flush_out(written);
    return read_in(lines, t_recv);
  }

 private:
  void flush_out(std::vector<std::pair<long, std::int64_t>>* written) {
    while (!out_.empty() && p_.to() >= 0) {
      const ssize_t w = write(p_.to(), out_.data(), out_.size());
      if (w < 0) {
        if (errno == EAGAIN || errno == EINTR) break;
        die(std::string("write to server failed: ") + std::strerror(errno));
      }
      out_.erase(0, static_cast<std::size_t>(w));
      sent_bytes_ += static_cast<std::size_t>(w);
    }
    const std::int64_t now = now_ns();
    while (!pending_.empty() && pending_.front().first <= sent_bytes_) {
      if (written != nullptr) written->push_back({pending_.front().second, now});
      pending_.pop_front();
    }
  }

  bool read_in(std::vector<std::string>* lines, std::int64_t* t_recv) {
    char buf[65536];
    bool open = true;
    for (;;) {
      const ssize_t r = read(p_.from(), buf, sizeof(buf));
      if (r > 0) {
        *t_recv = now_ns();
        in_.append(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0) open = false;
      else if (errno != EAGAIN && errno != EINTR) die("read from server failed");
      break;
    }
    std::size_t start = 0;
    for (std::size_t nl = in_.find('\n'); nl != std::string::npos; nl = in_.find('\n', start)) {
      lines->push_back(in_.substr(start, nl - start));
      start = nl + 1;
    }
    in_.erase(0, start);
    return open;
  }

  ServerProcess& p_;
  std::string out_;
  std::string in_;
  std::size_t sent_bytes_ = 0;
  std::deque<std::pair<std::size_t, long>> pending_;  // (end offset, line index)
};

// "{"id":"123",..." -> 123; "setup" -> -1; anything else -> -2.
long response_index(const std::string& line) {
  static const std::string prefix = "{\"id\":\"";
  if (line.compare(0, prefix.size(), prefix) != 0) return -2;
  const std::size_t end = line.find('"', prefix.size());
  if (end == std::string::npos) return -2;
  const std::string id = line.substr(prefix.size(), end - prefix.size());
  if (id == "setup") return -1;
  if (id.empty() || id.size() > 12 || id.find_first_not_of("0123456789") != std::string::npos)
    return -2;
  return std::stol(id);
}

bool is_ok(const std::string& line) { return line.find("\"ok\":true", 0) != std::string::npos; }

struct Run {
  std::vector<std::string> responses;   // measured server only
  std::vector<std::int64_t> recv_ns;    // per line index, 0 = not yet
  std::vector<std::int64_t> sched_ns;   // open loop: scheduled send time
  std::vector<std::int64_t> late_ns;    // open loop: written - scheduled
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  signal(SIGPIPE, SIG_IGN);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<std::string> lines;
  {
    std::ifstream in(o.lines_file);
    if (!in) die("cannot read " + o.lines_file);
    for (std::string l; std::getline(in, l);) lines.push_back(l);
  }
  const long total = o.warm + o.open + o.closed;
  if (total > static_cast<long>(lines.size())) die("--warm + --open + --closed exceeds --lines");

  std::vector<double> setup_s;
  Run run;
  run.recv_ns.assign(static_cast<std::size_t>(total), 0);
  run.sched_ns.assign(static_cast<std::size_t>(total), 0);
  run.late_ns.assign(static_cast<std::size_t>(total), 0);
  std::int64_t closed_t0 = 0;
  std::int64_t closed_t1 = 0;
  long closed_ok = 0;
  long maxrss_kb = 0;
  double cpu_s = 0.0;
  int status = 0;

  for (int rep = 0; rep < o.setup_reps; ++rep) {
    const bool measured = rep + 1 == o.setup_reps;
    if (!o.unlink_file.empty()) unlink(o.unlink_file.c_str());
    const std::int64_t t_spawn = now_ns();
    ServerProcess server(o.server_argv);
    Pump pump(server);
    std::vector<std::string> got;
    std::int64_t t_recv = 0;
    bool open = true;
    bool pinged = false;
    long answered = 0;  // of lines [0, total)
    // A server that stops answering must not hang the benchmark: after
    // kStallNs without a response the phase gives up, and the missing
    // answers fail the run's checks instead.
    std::int64_t progress = now_ns();
    const auto alive = [&]() { return open && now_ns() - progress < kStallNs; };

    // Collect responses into `got`, book-keeping recv times.
    const auto drain_got = [&]() {
      if (!got.empty()) progress = now_ns();
      for (std::string& l : got) {
        const long idx = response_index(l);
        if (idx >= 0 && idx < total) {
          std::int64_t& recv = run.recv_ns[static_cast<std::size_t>(idx)];
          if (recv == 0) {  // a duplicate keeps the first arrival
            ++answered;
            recv = t_recv;
            if (idx >= o.warm + o.open && is_ok(l)) ++closed_ok;
          }
        }
        if (idx == -1) pinged = true;
        if (measured && idx != -1) run.responses.push_back(std::move(l));
      }
      got.clear();
    };
    // Closed loop over [begin, end) with o.window outstanding, until all
    // of them are answered.
    const auto closed_loop = [&](long begin, long end) {
      const long base = answered;
      long next = begin;
      while (answered - base < end - begin && alive()) {
        while (next < end && (next - begin) - (answered - base) < o.window) {
          pump.send(lines[static_cast<std::size_t>(next)], next);
          ++next;
        }
        open = pump.step(1000000, &got, &t_recv, nullptr);
        drain_got();
      }
    };

    std::fill(run.recv_ns.begin(), run.recv_ns.end(), 0);
    closed_ok = 0;
    pump.send("{\"id\":\"setup\",\"op\":\"ping\"}", -1);
    while (!pinged && alive()) {
      open = pump.step(1000000, &got, &t_recv, nullptr);
      drain_got();
    }
    closed_loop(0, o.warm);
    setup_s.push_back(static_cast<double>(now_ns() - t_spawn) * 1e-9);

    if (measured) {
      // Open loop: Poisson arrivals from the seed, timed from schedule.
      std::mt19937_64 rng(o.seed);
      std::exponential_distribution<double> gap(o.rate);
      const long begin = o.warm;
      const long end = o.warm + o.open;
      const std::int64_t t0 = now_ns() + 2000000;  // 2 ms lead-in
      double t = 0.0;
      for (long i = begin; i < end; ++i) {
        t += gap(rng);
        run.sched_ns[static_cast<std::size_t>(i)] = t0 + static_cast<std::int64_t>(t * 1e9);
      }
      long next = begin;
      std::vector<std::pair<long, std::int64_t>> written;
      const long target = answered + (end - begin);
      while (answered < target && alive()) {
        const std::int64_t now = now_ns();
        while (next < end && run.sched_ns[static_cast<std::size_t>(next)] <= now) {
          pump.send(lines[static_cast<std::size_t>(next)], next);
          ++next;
        }
        const std::int64_t wait =
            next < end ? std::max<std::int64_t>(0, run.sched_ns[static_cast<std::size_t>(next)] - now)
                       : 1000000;
        written.clear();
        open = pump.step(wait, &got, &t_recv, &written);
        for (const auto& [w, tw] : written)
          run.late_ns[static_cast<std::size_t>(w)] = tw - run.sched_ns[static_cast<std::size_t>(w)];
        drain_got();
      }
      closed_t0 = now_ns();
      closed_loop(end, total);
      closed_t1 = now_ns();
    }

    server.close_stdin();
    progress = now_ns();
    while (alive()) {
      open = pump.step(10000000, &got, &t_recv, nullptr);
      drain_got();
    }
    if (open) server.kill_now();  // never drained: reaped below all the same
    status = server.reap(&maxrss_kb, &cpu_s);
    if (!measured && !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
      die("set-up server exited abnormally");
  }

  {
    std::ofstream r(o.out + ".responses");
    for (const std::string& l : run.responses) r << l << '\n';
    std::ofstream lat(o.out + ".lat");
    for (long i = o.warm; i < o.warm + o.open; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      const std::int64_t l = run.recv_ns[k] > 0 ? run.recv_ns[k] - run.sched_ns[k] : -1;
      lat << i << ' ' << l << ' ' << run.late_ns[k] << '\n';
    }
  }
  std::ofstream js(o.out + ".json");
  js.precision(17);
  js << "{\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) js << (i ? "," : "") << setup_s[i];
  js << "],\"closed_s\":" << static_cast<double>(closed_t1 - closed_t0) * 1e-9
     << ",\"closed_ok\":" << closed_ok
     << ",\"exit_code\":" << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
     << ",\"maxrss_kb\":" << maxrss_kb << ",\"cpu_s\":" << cpu_s << "}\n";
  return js.good() ? 0 : 2;
}
