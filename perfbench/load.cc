// pb_load: the benchmark's NDJSON load generator.
//
// Reads a request schedule, drives it against telekit_serve /
// telekit_router endpoints from ONE thread (ppoll over every client
// connection), and writes one result row per request. The generator never
// parses replies: it only frames lines, so its own cost stays flat.
//
//   pb_load --mode=open|closed --endpoint=PORT:CONNS [--endpoint=...]
//           --window=W --in=SCHEDULE --out=RESULTS [--seconds=T]
//           [--ring=PORT,PORT]
//
// Schedule rows: "<due_us>\t<target>\t<request json>". `target` is an
// endpoint index, or "ring" to send the request straight to the replica a
// route::HashRing over the --ring replicas picks for the request text (the
// replica the router would pick; used to price the router hop).
//
// open:   each request is sent when due (Poisson arrivals are in the
//         schedule), to the least-loaded connection of its endpoint (ties
//         rotate, so every connection carries traffic and none idles into
//         the server's 1 s idle drop), with at most W outstanding per
//         connection. A request that finds every
//         connection full waits in the generator; its latency still counts
//         from when it was due, so a stall is charged to every request it
//         delays.
// closed: every connection keeps W requests outstanding and sends the next
//         schedule row as soon as a reply arrives, until the schedule ends or
//         --seconds elapse. Latency counts from the send.
//
// Result rows: "<index>\t<late_us>\t<latency_us>\t<reply>" where late_us is
// how far behind its due time the request was sent; a request whose
// connection failed reports latency -1 and reply "ERROR <why>". The last
// stdout line is "elapsed_s=<s> sent=<n> completed=<n> failed=<n>". A run
// that has not finished after kTimeoutS fails every open request.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "route/ring.h"
#include "serve/line_io.h"

namespace {

using Clock = std::chrono::steady_clock;

// Under run.py's 170 s limit on one pb_load call, so a hung server shows up
// as failed rows rather than a killed generator.
constexpr double kTimeoutS = 150.0;

struct Row {
  int64_t due_us = 0;
  int endpoint = 0;  // -1: ring owner of the request text
  std::string text;  // ring key
  std::string line;
  int64_t sent_us = -1;
  int64_t done_us = -1;
  std::string reply;
};

struct Conn {
  int endpoint = 0;
  int fd = -1;
  std::deque<size_t> outstanding;
  std::string buffer;
};

struct Options {
  bool closed = false;
  std::vector<std::pair<int, int>> endpoints;  // (port, connections)
  std::vector<int> ring_ports;
  int window = 1;
  double seconds = 0.0;
  std::string in;
  std::string out;
};

[[noreturn]] void Die(const std::string& why) {
  std::cerr << "pb_load: " << why << "\n";
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (name == "--mode") {
      if (value != "open" && value != "closed") Die("bad --mode " + value);
      options.closed = value == "closed";
    } else if (name == "--endpoint") {
      const std::vector<std::string> parts = telekit::SplitString(value, ':');
      if (parts.size() != 2) Die("bad --endpoint " + value);
      options.endpoints.emplace_back(std::atoi(parts[0].c_str()),
                                     std::atoi(parts[1].c_str()));
    } else if (name == "--ring") {
      for (const std::string& port : telekit::SplitString(value, ',')) {
        options.ring_ports.push_back(std::atoi(port.c_str()));
      }
    } else if (name == "--window") {
      options.window = std::max(1, std::atoi(value.c_str()));
    } else if (name == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (name == "--in") {
      options.in = value;
    } else if (name == "--out") {
      options.out = value;
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (options.endpoints.empty() || options.in.empty() || options.out.empty()) {
    Die("need --endpoint, --in and --out");
  }
  return options;
}

std::vector<Row> ReadSchedule(const Options& options) {
  std::ifstream in(options.in);
  if (!in) Die("cannot read " + options.in);
  std::vector<Row> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t a = line.find('\t');
    const size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) Die("bad schedule row: " + line);
    Row row;
    row.due_us = std::atoll(line.substr(0, a).c_str());
    const std::string target = line.substr(a + 1, b - a - 1);
    row.line = line.substr(b + 1);
    if (target == "ring") {
      if (options.ring_ports.empty()) Die("ring target without --ring");
      row.endpoint = -1;
      // The router keys its ring on the request's "text" field.
      const size_t key = row.line.find("\"text\": \"");
      if (key == std::string::npos) Die("ring row without text: " + line);
      const size_t start = key + 9;
      row.text = row.line.substr(start, row.line.find('"', start) - start);
    } else {
      row.endpoint = std::atoi(target.c_str());
      if (row.endpoint < 0 ||
          row.endpoint >= static_cast<int>(options.endpoints.size())) {
        Die("bad target " + target);
      }
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) Die("empty schedule");
  return rows;
}

class Driver {
 public:
  Driver(const Options& options, std::vector<Row>* rows)
      : options_(options), rows_(*rows), start_(Clock::now()) {
    for (size_t e = 0; e < options.endpoints.size(); ++e) {
      for (int c = 0; c < options.endpoints[e].second; ++c) {
        Conn conn;
        conn.endpoint = static_cast<int>(e);
        conns_.push_back(std::move(conn));
      }
    }
    if (!options.ring_ports.empty()) {
      std::vector<std::string> names;
      for (int port : options.ring_ports) {
        names.push_back("127.0.0.1:" + std::to_string(port));
        // Ring targets ride the endpoint with the same port.
        int endpoint = -1;
        for (size_t e = 0; e < options.endpoints.size(); ++e) {
          if (options.endpoints[e].first == port) endpoint = static_cast<int>(e);
        }
        if (endpoint < 0) Die("ring port without an --endpoint");
        ring_endpoint_.push_back(endpoint);
      }
      ring_ = std::make_unique<telekit::route::HashRing>(names);
    }
  }

  ~Driver() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  void Run() {
    const int64_t timeout_us = static_cast<int64_t>(kTimeoutS * 1e6);
    const int64_t stop_us = options_.seconds > 0
                                ? static_cast<int64_t>(options_.seconds * 1e6)
                                : INT64_MAX;
    while (true) {
      const int64_t now = NowUs();
      if (now > timeout_us) {
        FailAll("generator timeout");
        return;
      }
      const bool may_send = next_ < rows_.size() && now < stop_us;
      bool blocked = false;
      if (may_send) blocked = SendDue(now);
      if ((next_ >= rows_.size() || now >= stop_us) && Outstanding() == 0) {
        return;
      }
      int64_t wait_us = 50000;
      if (may_send && !blocked && !options_.closed) {
        wait_us = std::clamp<int64_t>(rows_[next_].due_us - NowUs(), 0, wait_us);
      }
      Poll(wait_us);
    }
  }

  double ElapsedSeconds() const { return NowUs() / 1e6; }
  size_t sent() const { return next_; }

 private:
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  size_t Outstanding() const {
    size_t total = 0;
    for (const Conn& conn : conns_) total += conn.outstanding.size();
    return total;
  }

  int EndpointOf(const Row& row) const {
    if (row.endpoint >= 0) return row.endpoint;
    return ring_endpoint_[ring_->Pick(row.text)];
  }

  /// Sends every due row that has a free connection slot; true when a due
  /// row had to wait for one.
  bool SendDue(int64_t now) {
    while (next_ < rows_.size()) {
      Row& row = rows_[next_];
      if (!options_.closed && row.due_us > now) return false;
      Conn* best = nullptr;
      const int endpoint = options_.closed ? 0 : EndpointOf(row);
      for (size_t i = 0; i < conns_.size(); ++i) {
        Conn& conn = conns_[(rotate_ + i) % conns_.size()];
        if (options_.closed || conn.endpoint == endpoint) {
          if (best == nullptr || conn.outstanding.size() < best->outstanding.size()) {
            best = &conn;
          }
        }
      }
      ++rotate_;
      if (best == nullptr ||
          best->outstanding.size() >= static_cast<size_t>(options_.window)) {
        return true;
      }
      if (best->fd < 0) {
        best->fd = telekit::serve::ConnectTcp(
            "127.0.0.1", options_.endpoints[best->endpoint].first, 2000.0);
        if (best->fd < 0) {
          row.sent_us = NowUs();
          row.reply = "ERROR connect failed";
          ++next_;
          continue;
        }
      }
      row.sent_us = NowUs();
      if (options_.closed) row.due_us = row.sent_us;
      best->outstanding.push_back(next_);
      ++next_;
      if (!telekit::serve::SendLine(best->fd, row.line)) {
        FailConn(best, "send failed");
      }
    }
    return false;
  }

  void Poll(int64_t wait_us) {
    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    for (Conn& conn : conns_) {
      if (conn.fd >= 0 && !conn.outstanding.empty()) {
        fds.push_back(pollfd{conn.fd, POLLIN, 0});
        owners.push_back(&conn);
      }
    }
    timespec ts{static_cast<time_t>(wait_us / 1000000),
                static_cast<long>((wait_us % 1000000) * 1000)};
    if (fds.empty()) {
      nanosleep(&ts, nullptr);
      return;
    }
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn* conn = owners[i];
      char buf[65536];
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n == 0) {
        FailConn(conn, "connection closed by peer");
        continue;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        FailConn(conn, std::string("recv: ") + std::strerror(errno));
        continue;
      }
      const int64_t now = NowUs();
      conn->buffer.append(buf, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = conn->buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        if (conn->outstanding.empty()) break;  // unsolicited line
        Row& row = rows_[conn->outstanding.front()];
        conn->outstanding.pop_front();
        row.done_us = now;
        row.reply = conn->buffer.substr(start, nl - start);
      }
      conn->buffer.erase(0, start);
    }
  }

  void FailConn(Conn* conn, const std::string& why) {
    for (size_t idx : conn->outstanding) rows_[idx].reply = "ERROR " + why;
    conn->outstanding.clear();
    conn->buffer.clear();
    ::close(conn->fd);
    conn->fd = -1;
  }

  void FailAll(const std::string& why) {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) FailConn(&conn, why);
    }
    for (; next_ < rows_.size(); ++next_) rows_[next_].reply = "ERROR " + why;
  }

  const Options& options_;
  std::vector<Row>& rows_;
  const Clock::time_point start_;
  std::vector<Conn> conns_;
  std::unique_ptr<telekit::route::HashRing> ring_;
  std::vector<int> ring_endpoint_;
  size_t next_ = 0;
  size_t rotate_ = 0;  // first connection scanned by the next SendDue pick
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  std::vector<Row> rows = ReadSchedule(options);
  Driver driver(options, &rows);
  driver.Run();
  const double elapsed = driver.ElapsedSeconds();

  std::ofstream out(options.out);
  if (!out) Die("cannot write " + options.out);
  size_t completed = 0;
  size_t failed = 0;
  for (size_t i = 0; i < driver.sent(); ++i) {
    const Row& row = rows[i];
    const bool ok = row.done_us >= 0;
    ok ? ++completed : ++failed;
    out << i << '\t' << (row.sent_us - row.due_us) << '\t'
        << (ok ? row.done_us - row.due_us : -1) << '\t' << row.reply << '\n';
  }
  std::printf("elapsed_s=%.6f sent=%zu completed=%zu failed=%zu\n", elapsed,
              driver.sent(), completed, failed);
  return 0;
}
