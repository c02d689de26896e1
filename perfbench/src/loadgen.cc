#include "loadgen.h"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <tuple>

#include "util/random.h"

namespace perfbench {

namespace net = duplex::net;

std::vector<uint64_t> PoissonSchedule(double rate, double seconds,
                                      uint64_t seed) {
  duplex::Rng rng(seed);
  std::vector<uint64_t> offsets;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    offsets.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return offsets;
}

namespace {

class FirstError {
 public:
  void Set(const Status& s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = s;
    failed_.store(true);
  }
  bool failed() const { return failed_.load(); }
  Status Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::mutex mu_;
  Status status_;
  std::atomic<bool> failed_{false};
};

std::atomic<bool> realtime_refused{false};

// Gives the calling thread the lowest real-time priority when the host
// allows it, so the daemon's own threads (a 4-shard batch apply keeps every
// core busy) cannot delay a due send or a reply's timestamp. Returns the
// previous policy for RestoreScheduling; lateness is measured either way.
struct Scheduling {
  int policy = SCHED_OTHER;
  sched_param param{};
};

Scheduling RaiseToRealtime() {
  Scheduling previous;
  pthread_getschedparam(pthread_self(), &previous.policy, &previous.param);
  sched_param rt{};
  rt.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &rt) != 0) {
    realtime_refused.store(true);
  }
  return previous;
}

void RestoreScheduling(const Scheduling& previous) {
  pthread_setschedparam(pthread_self(), previous.policy, &previous.param);
}

void SleepUntilNs(uint64_t target) {
  const uint64_t now = NowNs();
  if (now < target) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
  }
}

}  // namespace

bool RealtimeGranted() { return !realtime_refused.load(); }

Status RunOpenLoop(const std::vector<Stream*>& streams,
                   const std::atomic<bool>* stop) {
  std::vector<std::tuple<uint64_t, size_t, size_t>> order;
  for (size_t s = 0; s < streams.size(); ++s) {
    const std::vector<uint64_t>& offsets = streams[s]->offsets();
    for (size_t i = 0; i < offsets.size(); ++i) {
      order.emplace_back(offsets[i], s, i);
    }
  }
  std::sort(order.begin(), order.end());

  // Each vector is written by one thread only and read after the joins.
  std::vector<std::vector<uint64_t>> send_ns(streams.size());
  std::vector<std::vector<uint64_t>> recv_ns(streams.size());
  for (size_t s = 0; s < streams.size(); ++s) {
    send_ns[s].assign(streams[s]->offsets().size(), 0);
    recv_ns[s].assign(streams[s]->offsets().size(), 0);
  }
  FirstError error;
  const auto abort_all = [&](const Status& s) {
    error.Set(s);
    for (Stream* stream : streams) stream->conn()->Shutdown();
  };

  // After its last request the sender pings each connection with this id
  // and publishes how many requests it sent; a receiver is done once it
  // has that reply and every reply before it.
  constexpr uint64_t kFenceId = uint64_t{1} << 61;
  std::vector<std::atomic<size_t>> sent(streams.size());
  std::vector<std::thread> receivers;
  for (size_t s = 0; s < streams.size(); ++s) {
    receivers.emplace_back([&, s] {
      RaiseToRealtime();
      Stream* stream = streams[s];
      size_t received = 0;
      size_t extras = 0;
      bool fenced = false;
      while (!fenced || received < sent[s].load() || extras > 0) {
        Result<net::Frame> frame = stream->conn()->Receive();
        if (!frame.ok()) {
          if (!error.failed()) abort_all(frame.status());
          return;
        }
        const uint64_t now = NowNs();
        const uint64_t id = frame->header.request_id;
        if (id == kFenceId) {
          fenced = true;
          continue;
        }
        if (Stream::IsExtra(id)) {
          stream->OnExtraReply(id, *frame);
          --extras;
          continue;
        }
        if (id == 0 || id > recv_ns[s].size() || recv_ns[s][id - 1] != 0) {
          abort_all(Status::Corruption("reply to unknown request id " +
                                       std::to_string(id)));
          return;
        }
        recv_ns[s][id - 1] = now;
        extras += stream->OnReply(id - 1, now, *frame);
        ++received;
      }
    });
  }

  // The calling thread is the sender. A 1 ns timer slack lets the kernel
  // wake it at the due time instead of up to 50 us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const Scheduling previous = RaiseToRealtime();
  const uint64_t start = NowNs() + 2'000'000;
  std::vector<size_t> sent_by_sender(streams.size(), 0);
  for (const auto& [offset, s, i] : order) {
    if (error.failed() || (stop != nullptr && stop->load())) break;
    SleepUntilNs(start + offset);
    if (stop != nullptr && stop->load()) break;
    auto [opcode, payload] = streams[s]->Build(i);
    send_ns[s][i] = NowNs();
    if (Status st = streams[s]->conn()->Send(opcode, i + 1, payload);
        !st.ok()) {
      abort_all(st);
      break;
    }
    ++sent_by_sender[s];
  }
  for (size_t s = 0; s < streams.size(); ++s) {
    sent[s].store(sent_by_sender[s]);
    if (error.failed()) break;
    if (Status st = streams[s]->conn()->Send(net::Opcode::kPing, kFenceId, "");
        !st.ok()) {
      abort_all(st);
    }
  }
  RestoreScheduling(previous);
  for (std::thread& t : receivers) t.join();

  for (size_t s = 0; s < streams.size(); ++s) {
    Stream* stream = streams[s];
    // Requests go out in schedule order, so the sent ones are a prefix.
    stream->timings.resize(sent_by_sender[s]);
    for (size_t i = 0; i < stream->timings.size(); ++i) {
      stream->timings[i] = {start + stream->offsets()[i], send_ns[s][i],
                            recv_ns[s][i]};
    }
  }
  return error.Get();
}

Result<ClosedLoopResult> RunClosedLoop(
    const std::vector<Conn*>& conns, double seconds,
    const std::function<std::pair<net::Opcode, std::string>(
        size_t conn, uint64_t n)>& request,
    const std::function<void(size_t conn, uint64_t n, const net::Frame& frame)>&
        reply) {
  FirstError error;
  // Completion times, one vector per connection thread.
  std::vector<std::vector<uint64_t>> completed(conns.size());
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t n = 0; NowNs() < end && !error.failed(); ++n) {
        auto [opcode, payload] = request(c, n);
        if (Status s = conns[c]->Send(opcode, n + 1, payload); !s.ok()) {
          error.Set(s);
          return;
        }
        Result<net::Frame> frame = conns[c]->Receive();
        if (!frame.ok()) {
          error.Set(frame.status());
          return;
        }
        reply(c, n, *frame);
        completed[c].push_back(NowNs());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  DUPLEX_RETURN_IF_ERROR(error.Get());
  ClosedLoopResult result;
  const auto window_ns = static_cast<uint64_t>(kRateWindowSeconds * 1e9);
  std::vector<uint64_t> per_window((end - start) / window_ns, 0);
  for (const auto& times : completed) {
    result.completed += times.size();
    for (const uint64_t t : times) {
      const uint64_t w = (t - start) / window_ns;
      if (w < per_window.size()) ++per_window[w];
    }
  }
  for (const uint64_t n : per_window) {
    result.window_rates.push_back(static_cast<double>(n) / kRateWindowSeconds);
  }
  return result;
}

}  // namespace perfbench
