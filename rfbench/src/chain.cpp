// The deployed chain, driven end to end from one process:
//
//   ether segments -> core::StreamingMonitor (PushSegment / Flush)
//     -> net::MonitorSensorSink -> net::SensorSession / SensorEndpoint
//     -> net::TcpTransport over loopback -> net::AggregatorServer
//
// fleet-fanin skips the monitor and drives K sinks directly from an event
// log. Every run is closed-loop: the next segment is pushed as soon as the
// previous call returns, so a slower system simply replays less ether.
//
// Clocks: the session/aggregator tick advances with the ether pushed (one
// tick per kSamplesPerTick samples), never with wall time, so a fast or
// slow host changes how much ether a run covers but not the protocol
// behaviour (no retransmit or liveness timer can fire because a block took
// long to decode). Each pump runs endpoint -> server -> endpoint, so a
// frame's ack comes back within the tick it was sent in.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/net/endpoint.hpp"
#include "rfdump/net/fleet.hpp"
#include "rfdump/net/tcp.hpp"
#include "rfdump/testing/oracle.hpp"

namespace rfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Resident set size now, in MiB.
double RssMb() {
  long pages_total = 0, pages_resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
      pages_resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

thread_local Tracer::Span* t_open_span = nullptr;

// --------------------------------------------------- traced-run wrappers

/// Counts every socket syscall the TCP transports make (traced run only).
class CountingSyscalls final : public net::Syscalls {
 public:
  int Socket() override { ++calls; return Syscalls::Socket(); }
  int Connect(int fd, const sockaddr* addr, unsigned len) override {
    ++calls;
    return Syscalls::Connect(fd, addr, len);
  }
  int Accept(int fd) override { ++calls; return Syscalls::Accept(fd); }
  ssize_t Read(int fd, void* buf, std::size_t len) override {
    ++calls;
    return Syscalls::Read(fd, buf, len);
  }
  ssize_t Write(int fd, const void* buf, std::size_t len) override {
    ++calls;
    return Syscalls::Write(fd, buf, len);
  }
  int Close(int fd) override { ++calls; return Syscalls::Close(fd); }
  int PollOne(int fd, short events, int timeout_ms) override {
    ++calls;
    return Syscalls::PollOne(fd, events, timeout_ms);
  }
  int SockError(int fd) override { ++calls; return Syscalls::SockError(fd); }

  std::uint64_t calls = 0;
};

/// Transport span around a TcpTransport.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(std::unique_ptr<net::Transport> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool Send(std::span<const std::uint8_t> frame) override {
    Tracer::Span span(tracer_, Layer::kTransport);
    return inner_->Send(frame);
  }
  void Poll(std::int64_t tick, std::vector<std::uint8_t>& received) override {
    Tracer::Span span(tracer_, Layer::kTransport);
    inner_->Poll(tick, received);
  }
  [[nodiscard]] State state() const override { return inner_->state(); }
  void Close() override { inner_->Close(); }
  [[nodiscard]] const Stats& stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  Tracer* tracer_;
};

/// Sink span in front of MonitorSensorSink.
class TracedSink final : public core::ResultSink {
 public:
  TracedSink(net::MonitorSensorSink& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void OnEvent(const core::ProtocolEvent& event) override {
    Tracer::Span span(tracer_, Layer::kSink);
    inner_.OnEvent(event);
  }
  void OnHealth(const core::HealthReport& report) override {
    Tracer::Span span(tracer_, Layer::kSink);
    inner_.OnHealth(report);
  }

 private:
  net::MonitorSensorSink& inner_;
  Tracer* tracer_;
};

// ------------------------------------------------------------------ rig

/// One sensor's sensor-side stack.
struct SensorNode {
  std::int64_t skew = 0;
  std::unique_ptr<net::SensorSession> session;
  std::unique_ptr<net::SensorEndpoint> endpoint;
  std::unique_ptr<net::MonitorSensorSink> sink;
  std::unique_ptr<TracedSink> traced_sink;
  core::ResultSink* front = nullptr;  // what the monitor or fleet loop calls
};

/// The whole system under test. Construction is the set-up the benchmark
/// times: monitor + executor threads, listener, sessions, TCP dial/accept,
/// hello and first ack.
class Rig {
 public:
  Rig(const Workload& w, Tracer* tracer)
      : tracer_(tracer), listener_(Sys()) {
    if (!listener_.Listen("127.0.0.1", 0)) {
      throw std::runtime_error("cannot listen on 127.0.0.1");
    }
    server_ = std::make_unique<net::AggregatorServer>(
        net::AggregatorServer::Config{});
    const std::vector<std::int64_t> skews =
        w.kind == Kind::kFleetFanin
            ? w.sensor_skews
            : std::vector<std::int64_t>{w.clock_skew};
    const std::uint16_t port = listener_.port();
    for (std::size_t i = 0; i < skews.size(); ++i) {
      auto node = std::make_unique<SensorNode>();
      node->skew = skews[i];
      net::SensorSession::Config scfg;
      scfg.sensor_id = static_cast<std::uint16_t>(i);
      node->session = std::make_unique<net::SensorSession>(scfg, i + 1);
      node->endpoint = std::make_unique<net::SensorEndpoint>(
          *node->session, [this, port](std::int64_t tick) {
            return Wrap(net::TcpTransport::Dial("127.0.0.1", port, {}, Sys(),
                                                tick));
          });
      node->sink = std::make_unique<net::MonitorSensorSink>(*node->session);
      node->front = node->sink.get();
      if (tracer_ != nullptr) {
        node->traced_sink = std::make_unique<TracedSink>(*node->sink, tracer_);
        node->front = node->traced_sink.get();
      }
      nodes_.push_back(std::move(node));
    }
    if (w.kind != Kind::kFleetFanin) {
      core::StreamingMonitor::Config mcfg;
      mcfg.pipeline = w.pipeline;
      mcfg.threads = w.threads;
      mcfg.sink = nodes_[0]->front;
      monitor_ = std::make_unique<core::StreamingMonitor>(mcfg);
    }
    Handshake();
  }

  ~Rig() {
    // The analyzer thread may still hold the sink: stop it first.
    monitor_.reset();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// One pump of the whole fleet at `tick`.
  void Pump(std::int64_t tick) {
    PumpSensors(tick);
    {
      Tracer::Span span(tracer_, Layer::kAggregator);
      server_->Pump(tick);
    }
    PumpSensors(tick);
  }

  net::Aggregator& agg() { return server_->aggregator(); }
  std::vector<std::unique_ptr<SensorNode>>& nodes() { return nodes_; }
  core::StreamingMonitor& monitor() { return *monitor_; }
  Tracer* tracer() { return tracer_; }
  std::uint64_t syscalls() const { return counting_.calls; }
  const std::vector<const net::Transport*>& server_transports() const {
    return server_side_;
  }

 private:
  net::Syscalls& Sys() {
    return tracer_ != nullptr ? static_cast<net::Syscalls&>(counting_)
                              : net::Syscalls::Real();
  }

  std::unique_ptr<net::Transport> Wrap(std::unique_ptr<net::Transport> t) {
    if (t == nullptr || tracer_ == nullptr) return t;
    return std::make_unique<TracedTransport>(std::move(t), tracer_);
  }

  void PumpSensors(std::int64_t tick) {
    for (auto& n : nodes_) {
      Tracer::Span span(tracer_, Layer::kSession);
      n->endpoint->Pump(tick, tick * kSamplesPerTick + n->skew);
    }
  }

  void Handshake() {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (true) {
      PumpSensors(0);
      while (auto t = listener_.Accept({}, 0)) {
        server_side_.push_back(t.get());
        server_->Adopt(Wrap(std::move(t)));
      }
      {
        Tracer::Span span(tracer_, Layer::kAggregator);
        server_->Pump(0);
      }
      PumpSensors(0);
      bool all = true;
      for (auto& n : nodes_) {
        all = all && n->session->state() == net::SensorSession::State::kConnected;
      }
      if (all) return;
      if (Clock::now() > deadline) {
        throw std::runtime_error("sensor sessions did not connect over loopback");
      }
    }
  }

  Tracer* tracer_;
  CountingSyscalls counting_;
  net::TcpListener listener_;
  std::unique_ptr<net::AggregatorServer> server_;
  std::vector<const net::Transport*> server_side_;  // owned by server_
  std::vector<std::unique_ptr<SensorNode>> nodes_;
  std::unique_ptr<core::StreamingMonitor> monitor_;
};

// ------------------------------------------------------------ delivery

/// Watches the aggregator's fused view grow and turns each newly delivered
/// event into a latency sample, filed under the replay the event belongs
/// to. `starts` maps true-timeline sample positions to the wall time the
/// input holding them was handed over: entry i covers samples up to
/// (exclusive) starts[i].first.
class DeliveryWatch {
 public:
  explicit DeliveryWatch(std::int64_t period) : period_(period) {}

  void Handed(std::int64_t covers_until, Clock::time_point when) {
    if (!starts_.empty() && covers_until <= starts_.back().first) return;
    starts_.emplace_back(covers_until, when);
  }

  void Collect(const net::Aggregator& agg, Clock::time_point now) {
    const std::uint64_t total = agg.fused_pruned() + agg.fused().size();
    if (total == seen_) return;
    const auto& fused = agg.fused();
    const std::size_t fresh = static_cast<std::size_t>(total - seen_);
    for (std::size_t i = fused.size() - fresh; i < fused.size(); ++i) {
      const auto it = std::lower_bound(
          starts_.begin(), starts_.end(), fused[i].end,
          [](const auto& s, std::int64_t end) { return s.first < end; });
      if (it != starts_.end()) {
        const auto k = static_cast<std::size_t>(fused[i].end / period_);
        if (latency_ms_.size() <= k) latency_ms_.resize(k + 1);
        latency_ms_[k].push_back(1e3 * Since(it->second, now));
      }
    }
    seen_ = total;
    last_delivery_ = now;
  }

  std::uint64_t delivered() const { return seen_; }
  Clock::time_point last_delivery() const { return last_delivery_; }
  std::vector<std::vector<double>>& latency_ms() { return latency_ms_; }

 private:
  std::vector<std::pair<std::int64_t, Clock::time_point>> starts_;
  std::int64_t period_;
  std::vector<std::vector<double>> latency_ms_;
  std::uint64_t seen_ = 0;
  Clock::time_point last_delivery_{};
};

// ----------------------------------------------------------------- gates

struct Key {
  int protocol;
  int channel;
  std::uint64_t digest;
  bool operator<(const Key& o) const {
    return std::tie(protocol, channel, digest) <
           std::tie(o.protocol, o.channel, o.digest);
  }
};

struct SetDiff {
  std::uint64_t missing = 0;     // expected, not in the fused view
  std::uint64_t unexpected = 0;  // fused, not expected
  std::string example;           // first differences, for the log
};

/// Multiset comparison of (protocol, channel, payload digest) with starts
/// at most `slack` samples apart.
SetDiff CompareSets(const std::vector<net::FusedEvent>& fused,
                    const std::vector<net::EventRecord>& expected,
                    std::int64_t slack) {
  std::map<Key, std::vector<std::int64_t>> want, got;
  for (const auto& e : expected) {
    want[{static_cast<int>(e.protocol), e.channel, e.payload_digest}]
        .push_back(e.start_sample);
  }
  for (const auto& f : fused) {
    got[{static_cast<int>(f.protocol), f.channel, f.payload_digest}]
        .push_back(f.start);
  }
  SetDiff diff;
  const auto unmatched = [&](const char* what, std::uint64_t& counter,
                             const Key& key, std::int64_t start) {
    ++counter;
    if (diff.example.size() > 300) return;
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  " [%s: protocol %d channel %d start %lld digest %016llx]",
                  what, key.protocol, key.channel, static_cast<long long>(start),
                  static_cast<unsigned long long>(key.digest));
    diff.example += buf;
  };
  for (auto& [key, starts] : want) {
    auto& have = got[key];
    std::sort(starts.begin(), starts.end());
    std::sort(have.begin(), have.end());
    std::size_t i = 0, j = 0;
    while (i < starts.size() || j < have.size()) {
      if (i < starts.size() && j < have.size() &&
          std::llabs(starts[i] - have[j]) <= slack) {
        ++i, ++j;
      } else if (j == have.size() ||
                 (i < starts.size() && starts[i] < have[j])) {
        unmatched("missing", diff.missing, key, starts[i++]);
      } else {
        unmatched("unexpected", diff.unexpected, key, have[j++]);
      }
    }
    have.clear();
  }
  for (const auto& [key, rest] : got) {
    for (const auto start : rest) {
      unmatched("unexpected", diff.unexpected, key, start);
    }
  }
  return diff;
}

std::vector<net::EventRecord> Records(
    const std::vector<core::ProtocolEvent>& events) {
  std::vector<net::EventRecord> out;
  out.reserve(events.size());
  for (const auto& e : events) out.push_back(net::ToEventRecord(e));
  return out;
}

/// What one sensor's events become in the aggregator's fused view: an event
/// whose start lies within `slack` samples of an already fused event of the
/// same protocol and channel is merged into the closest one (the first
/// keeps its start; a CRC-clean event lends its digest to a CRC-failed
/// one). This is net::Aggregator's documented fusion rule; the streaming
/// monitor can emit one frame twice across a block seam, tens of samples
/// apart, and the aggregator rightly delivers it once.
std::vector<net::EventRecord> Fused(const std::vector<net::EventRecord>& events,
                                    std::int64_t slack) {
  std::vector<net::EventRecord> out;
  std::map<std::pair<int, int>, std::multimap<std::int64_t, std::size_t>> index;
  for (const auto& e : events) {
    auto& starts = index[{static_cast<int>(e.protocol), e.channel}];
    auto best = starts.end();
    std::int64_t best_dist = slack + 1;
    for (auto it = starts.lower_bound(e.start_sample - slack);
         it != starts.upper_bound(e.start_sample + slack); ++it) {
      const std::int64_t dist = std::llabs(it->first - e.start_sample);
      if (dist < best_dist) best_dist = dist, best = it;
    }
    if (best == starts.end()) {
      starts.emplace(e.start_sample, out.size());
      out.push_back(e);
      continue;
    }
    auto& kept = out[best->second];
    kept.end_sample = std::max(kept.end_sample, e.end_sample);
    if (!kept.crc_ok && e.crc_ok) {
      kept.crc_ok = true;
      kept.payload_digest = e.payload_digest;
    }
  }
  return out;
}

/// `replays` copies of one replay's events, shifted by the replay period;
/// the final replay uses `last`.
std::vector<net::EventRecord> Replayed(const std::vector<net::EventRecord>& each,
                                       const std::vector<net::EventRecord>& last,
                                       std::int64_t period,
                                       std::uint64_t replays) {
  std::vector<net::EventRecord> out;
  for (std::uint64_t k = 0; k < replays; ++k) {
    const std::int64_t shift = static_cast<std::int64_t>(k) * period;
    for (auto r : k + 1 == replays ? last : each) {
      r.start_sample += shift;
      r.end_sample += shift;
      out.push_back(r);
    }
  }
  return out;
}

/// Oracle score of the fused view against emulator truth, replay by replay.
void Score(const Workload& w, const std::vector<net::FusedEvent>& fused,
           std::uint64_t replays, ChainResult& r) {
  std::vector<core::MonitorReport> per(replays);
  for (const auto& f : fused) {
    const auto k = static_cast<std::uint64_t>(f.start / w.length);
    if (f.start < 0 || k >= replays) continue;
    core::ProtocolEvent e;
    e.protocol = f.protocol;
    e.start_sample = f.start - static_cast<std::int64_t>(k) * w.length;
    e.end_sample = f.end - static_cast<std::int64_t>(k) * w.length;
    e.channel = f.channel;
    e.crc_ok = f.crc_ok;
    per[k].events.push_back(e);
  }
  std::uint64_t truth = 0, matched = 0, decoded = 0, spurious = 0;
  std::map<int, std::array<std::uint64_t, 4>> by_protocol;
  for (const auto& rep : per) {
    const auto c = rfdump::testing::ScoreReport(w.truth, w.length, rep);
    for (const auto& p : c.protocols) {
      truth += p.truth_packets;
      matched += p.matched;
      decoded += p.decoded;
      spurious += p.spurious;
      auto& row = by_protocol[static_cast<int>(p.protocol)];
      row[0] += p.truth_packets, row[1] += p.matched, row[2] += p.decoded,
          row[3] += p.spurious;
    }
  }
  for (const auto& [protocol, row] : by_protocol) {
    std::fprintf(stderr,
                 "[rfbench] oracle: protocol %d truth %llu matched %llu "
                 "decoded %llu spurious %llu\n",
                 protocol, static_cast<unsigned long long>(row[0]),
                 static_cast<unsigned long long>(row[1]),
                 static_cast<unsigned long long>(row[2]),
                 static_cast<unsigned long long>(row[3]));
  }
  r.recall = truth == 0 ? 1.0 : static_cast<double>(matched) /
                                    static_cast<double>(truth);
  r.precision = decoded == 0 ? 1.0
                             : static_cast<double>(decoded - spurious) /
                                   static_cast<double>(decoded);
}

/// impaired-stream gate: the monitor's cumulative health equals what the
/// front-end fault logs say was injected over the replays it delivered
/// (replay k used schedule k mod the schedule count).
bool ImpairedGate(const Workload& w, const core::HealthSummary& sum,
                  std::uint64_t replays, std::string& detail) {
  const auto schedule = [&](std::uint64_t k) -> const Workload::Schedule& {
    return w.schedules[k % w.schedules.size()];
  };
  // Dropped runs in the concatenated true timeline; adjacent runs across a
  // replay boundary are one discontinuity to the monitor.
  std::vector<std::pair<std::int64_t, std::int64_t>> runs;
  std::int64_t overlap = 0;
  std::uint64_t sanitized = 0;
  for (std::uint64_t k = 0; k < replays; ++k) {
    const auto& faults = schedule(k).faults;
    const std::int64_t base = static_cast<std::int64_t>(k) * w.length;
    for (const auto& f : faults) {
      if (f.kind == emu::FaultKind::kDrop) {
        const std::int64_t s = f.start_sample + base, e = f.end_sample + base;
        if (!runs.empty() && runs.back().second == s) {
          runs.back().second = e;
        } else {
          runs.emplace_back(s, e);
        }
      } else if (f.kind == emu::FaultKind::kDuplicate) {
        overlap += f.length();
      } else if (f.kind == emu::FaultKind::kNonFinite) {
        // Burst samples inside a dropped run never reach the host.
        std::int64_t hidden = 0;
        for (const auto& d : faults) {
          if (d.kind != emu::FaultKind::kDrop) continue;
          hidden += std::max<std::int64_t>(
              0, std::min(f.end_sample, d.end_sample) -
                     std::max(f.start_sample, d.start_sample));
        }
        sanitized += static_cast<std::uint64_t>(f.length() - hidden);
      }
    }
  }
  // A run is a reported gap only with a delivery on both sides.
  const auto& first_d = schedule(0).deliveries.front();
  const auto& last_d = schedule(replays - 1).deliveries.back();
  const std::int64_t first = first_d.start - w.clock_skew;
  const std::int64_t last_end =
      static_cast<std::int64_t>(replays - 1) * w.length + last_d.start -
      w.clock_skew + static_cast<std::int64_t>(last_d.length);
  std::uint32_t gaps = 0;
  std::int64_t gap_samples = 0;
  for (const auto& [s, e] : runs) {
    if (s > first && e < last_end) {
      ++gaps;
      gap_samples += e - s;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "gaps %u/%u, gap samples %lld/%lld, overlap %lld/%lld, "
                "sanitized %llu/%llu (monitor/fault log)",
                sum.gap_count, gaps, static_cast<long long>(sum.gap_samples),
                static_cast<long long>(gap_samples),
                static_cast<long long>(sum.overlap_samples),
                static_cast<long long>(overlap),
                static_cast<unsigned long long>(sum.sanitized_samples),
                static_cast<unsigned long long>(sanitized));
  detail = buf;
  return sum.gap_count == gaps && sum.gap_samples == gap_samples &&
         sum.overlap_samples == overlap && sum.sanitized_samples == sanitized;
}

// ------------------------------------------------------------ chain runs

/// Pumps until every published event reached the aggregator and every
/// session's ledger is acked.
void Drain(Rig& rig, DeliveryWatch& watch, std::int64_t& tick,
           std::uint64_t published) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (true) {
    std::uint64_t received = 0;
    bool acked = true;
    for (auto& n : rig.nodes()) acked = acked && n->session->unacked() == 0;
    for (const auto id : rig.agg().sensor_ids()) {
      received += rig.agg().status(id).events_received;
    }
    if (acked && received >= published) return;
    if (Clock::now() > deadline) {
      throw std::runtime_error("chain did not drain within 30 s");
    }
    rig.Pump(++tick);
    watch.Collect(rig.agg(), Clock::now());
  }
}

void Finish(Rig& rig, DeliveryWatch& watch, Clock::time_point t0,
            double cpu0, double main_cpu0, ChainResult& r) {
  const auto t_end = watch.delivered() > 0 ? watch.last_delivery() : Clock::now();
  r.wall_s = Since(t0, t_end);
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.main_cpu_s = ThreadCpuSeconds() - main_cpu0;
  r.latency_ms = std::move(watch.latency_ms());
  r.fused = watch.delivered();
  for (auto& n : rig.nodes()) r.published += n->sink->events_published();
  for (const auto id : rig.agg().sensor_ids()) {
    r.received += rig.agg().status(id).events_received;
  }
}

void GatherNetLayers(Rig& rig, ChainResult& r) {
  auto& L = r.layers;
  for (auto& n : rig.nodes()) {
    const auto st = n->session->stats();
    L.frames_sent += st.frames_sent;
    L.retransmits += st.retransmits;
    const auto tt = n->endpoint->transport_totals();
    L.bytes_out += tt.bytes_sent;
    L.send_rejects += n->endpoint->stats().send_rejects;
    L.transport_frames += tt.frames_accepted;
  }
  for (const auto* t : rig.server_transports()) {
    L.transport_frames += t->stats().frames_accepted;
  }
  for (const auto id : rig.agg().sensor_ids()) {
    L.dups_dropped += rig.agg().status(id).duplicates_dropped;
  }
  L.merges = rig.agg().merges();
  L.fused_pruned = rig.agg().fused_pruned();
  L.syscalls = rig.syscalls();
  if (Tracer* tr = rig.tracer()) {
    L.push_s = tr->SelfSeconds(Layer::kPush);
    L.sink_s = tr->SelfSeconds(Layer::kSink);
    L.session_s = tr->SelfSeconds(Layer::kSession);
    L.transport_s = tr->SelfSeconds(Layer::kTransport);
    L.aggregator_s = tr->SelfSeconds(Layer::kAggregator);
    L.sink_events = tr->Count(Layer::kSink);
  }
}

ChainResult RunEther(const Workload& w, double seconds, Tracer* tracer) {
  // Deliveries of one replay per schedule, in the sensor clock. Clean
  // workloads have one schedule of fixed 4 ms segments.
  struct Delivery {
    std::int64_t start;
    dsp::const_sample_span samples;
  };
  std::vector<std::vector<Delivery>> schedules;
  if (w.kind == Kind::kImpairedStream) {
    for (const auto& sched : w.schedules) {
      auto& out = schedules.emplace_back();
      for (const auto& d : sched.deliveries) {
        out.push_back(
            {d.start,
             d.owned >= 0
                 ? dsp::const_sample_span(sched.owned[static_cast<std::size_t>(d.owned)])
                 : dsp::const_sample_span(
                       w.capture.data() + (d.start - w.clock_skew), d.length)});
      }
    }
  } else {
    constexpr std::size_t kSegment = 32768;  // 4 ms of ether per delivery
    auto& out = schedules.emplace_back();
    for (std::size_t off = 0; off < w.capture.size(); off += kSegment) {
      const std::size_t n = std::min(kSegment, w.capture.size() - off);
      out.push_back({static_cast<std::int64_t>(off) + w.clock_skew,
                     dsp::const_sample_span(w.capture.data() + off, n)});
    }
  }

  Rig rig(w, tracer);
  auto& monitor = rig.monitor();
  DeliveryWatch watch(w.length);
  ChainResult r;
  std::int64_t tick = 0, pushed_until = 0;
  std::uint64_t pumps = 0;
  double peak_rss = RssMb();

  const double cpu0 = ProcessCpuSeconds();
  const double main_cpu0 = ThreadCpuSeconds();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  // One chunk per replay. The capture is a whole number of block steps, so
  // every replay after the first computes the same blocks of the same
  // content; the first also fills the monitor's first block and is left out.
  r.chunk_ether_s = static_cast<double>(w.length) / dsp::kSampleRateHz;
  auto c0 = t0;
  double cpu_c0 = cpu0;
  CpuRotation rotation;
  do {
    rotation.Next();
    const std::int64_t base = static_cast<std::int64_t>(r.replays) * w.length;
    for (const auto& d : schedules[r.replays % schedules.size()]) {
      const std::int64_t true_end = d.start - w.clock_skew + base +
                                    static_cast<std::int64_t>(d.samples.size());
      watch.Handed(true_end, Clock::now());
      {
        Tracer::Span span(tracer, Layer::kPush);
        monitor.PushSegment(d.start + base, d.samples);
      }
      ++r.layers.segments;
      pushed_until = std::max(pushed_until, true_end);
      // One pump per tick of ether pushed, as a sensor pumping every 1 ms.
      while (tick < pushed_until / kSamplesPerTick) {
        rig.Pump(++tick);
        watch.Collect(rig.agg(), Clock::now());
        if (++pumps % 256 == 0) peak_rss = std::max(peak_rss, RssMb());
      }
    }
    const auto now = Clock::now();
    const double cpu = ProcessCpuSeconds();
    if (r.replays > 0) r.chunks.push_back({Since(c0, now), cpu - cpu_c0});
    c0 = now;
    cpu_c0 = cpu;
    ++r.replays;
  } while (Clock::now() < deadline);
  {
    Tracer::Span span(tracer, Layer::kPush);
    monitor.Flush();
  }
  {
    Tracer::Span span(tracer, Layer::kSink);
    rig.nodes()[0]->sink->Flush();
  }
  Drain(rig, watch, tick, rig.nodes()[0]->sink->events_published());
  peak_rss = std::max(peak_rss, RssMb());
  Finish(rig, watch, t0, cpu0, main_cpu0, r);
  r.peak_rss_mb = peak_rss;
  r.ether_s = static_cast<double>(r.replays) *
              static_cast<double>(w.length) / dsp::kSampleRateHz;

  const auto& sum = monitor.summary();
  r.intervals = sum.supervised_intervals;
  r.failed_intervals =
      sum.deadline_intervals + sum.exception_intervals + sum.skipped_intervals;
  r.layers.gap_cuts = sum.gap_count;
  r.layers.sanitized = sum.sanitized_samples;
  for (const auto& c : monitor.costs()) {
    if (c.name.rfind("detect/", 0) == 0) r.layers.ledger_detect_s += c.cpu_seconds;
    if (c.name.rfind("analysis/", 0) == 0) {
      r.layers.ledger_analysis_s += c.cpu_seconds;
    }
  }
  GatherNetLayers(rig, r);

  // Gates.
  const auto& fused = rig.agg().fused();
  Score(w, fused, r.replays, r);
  if (rig.agg().fused_pruned() != 0) {
    r.gate_detail = "fused history was pruned; the comparison needs all of it";
    return r;
  }
  if (w.kind == Kind::kImpairedStream) {
    r.gate_ok = ImpairedGate(w, sum, r.replays, r.gate_detail);
  } else {
    // Exact: the fused view must be what a serial in-process monitor emits
    // for the same replays (start, digest and all), whatever the width,
    // once fused as the aggregator fuses one sensor's events.
    const std::int64_t slack = net::Aggregator::Config{}.dedup_slack_samples;
    const auto diff = CompareSets(
        fused,
        Fused(Replayed(w.streamed, w.streamed_last, w.length, r.replays), slack),
        /*slack=*/0);
    // Against the batch decode, within the aggregator's dedup slack: the
    // streaming monitor is not batch-exact at block seams (see
    // rfbench/README.md), so up to 1% of the batch events per replay may
    // differ. A seam or streaming regression costs more than that.
    const auto batch = Records(w.reference);
    const auto vs_batch = CompareSets(
        fused, Fused(Replayed(batch, batch, w.length, r.replays), slack), slack);
    r.batch_diffs = vs_batch.missing + vs_batch.unexpected;
    const std::uint64_t batch_allowed = r.replays * ((batch.size() + 99) / 100);
    char buf[300];
    std::snprintf(buf, sizeof(buf),
                  "fused %zu vs streamed reference x %llu replays: %llu "
                  "missing, %llu unexpected; %llu differences from the batch "
                  "decode (at most %llu)",
                  fused.size(), static_cast<unsigned long long>(r.replays),
                  static_cast<unsigned long long>(diff.missing),
                  static_cast<unsigned long long>(diff.unexpected),
                  static_cast<unsigned long long>(r.batch_diffs),
                  static_cast<unsigned long long>(batch_allowed));
    r.gate_detail = buf + diff.example + vs_batch.example;
    r.gate_ok = diff.missing == 0 && diff.unexpected == 0 &&
                r.batch_diffs <= batch_allowed;
  }
  return r;
}

ChainResult RunFleet(const Workload& w, double seconds, Tracer* tracer) {
  // One batch per sensor per block; the fleet pumps once per tick.
  constexpr std::int64_t kBlockTicks = 16;
  constexpr std::int64_t kBlock = kBlockTicks * kSamplesPerTick;

  // The log (in publish order) and a mutable copy whose positions are
  // rewritten per replay and sensor, so the loop copies no payloads.
  const std::vector<core::ProtocolEvent>& base = w.reference;
  std::vector<core::ProtocolEvent> live = base;

  Rig rig(w, tracer);
  auto& nodes = rig.nodes();
  DeliveryWatch watch(w.length);
  ChainResult r;
  std::int64_t tick = 0;
  double peak_rss = RssMb();
  std::size_t cursor = 0;  // next log entry within the current replay

  const double cpu0 = ProcessCpuSeconds();
  const double main_cpu0 = ThreadCpuSeconds();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  std::int64_t block = 0;
  CpuRotation rotation;
  do {
    rotation.Next();
    const auto c0 = Clock::now();
    const double cpu_c0 = ProcessCpuSeconds();
    const std::int64_t replay_base = static_cast<std::int64_t>(r.replays) * w.length;
    const std::int64_t replay_end = replay_base + w.length;
    for (; block * kBlock < replay_end; ++block) {
      const std::int64_t b0 = block * kBlock, b1 = b0 + kBlock;
      for (auto& n : nodes) {
        core::HealthReport h;
        h.block_start = b0 + n->skew;
        h.block_samples = static_cast<std::uint64_t>(kBlock);
        n->front->OnHealth(h);
      }
      std::size_t end = cursor;
      while (end < base.size() && base[end].end_sample + replay_base <= b1) ++end;
      for (auto& n : nodes) {
        for (std::size_t j = cursor; j < end; ++j) {
          live[j].start_sample = base[j].start_sample + replay_base + n->skew;
          live[j].end_sample = base[j].end_sample + replay_base + n->skew;
          n->front->OnEvent(live[j]);
        }
      }
      cursor = end;
      watch.Handed(b1, Clock::now());
      for (auto& n : nodes) {
        Tracer::Span span(tracer, Layer::kSink);
        n->sink->Flush();
      }
      for (std::int64_t t = 0; t < kBlockTicks; ++t) {
        rig.Pump(++tick);
        watch.Collect(rig.agg(), Clock::now());
      }
      if (block % 16 == 0) peak_rss = std::max(peak_rss, RssMb());
    }
    ++r.replays;
    cursor = 0;
    r.chunks.push_back({Since(c0, Clock::now()), ProcessCpuSeconds() - cpu_c0});
  } while (Clock::now() < deadline);
  r.chunk_ether_s = static_cast<double>(w.length) / dsp::kSampleRateHz;
  Drain(rig, watch, tick, nodes.size() * nodes[0]->sink->events_published());
  peak_rss = std::max(peak_rss, RssMb());
  Finish(rig, watch, t0, cpu0, main_cpu0, r);
  r.peak_rss_mb = peak_rss;
  r.ether_s = static_cast<double>(block * kBlock) / dsp::kSampleRateHz;
  GatherNetLayers(rig, r);

  // Gate: fused == union of the published log, each event heard by every
  // sensor, and no corrupt frame anywhere on the path.
  const auto& agg = rig.agg();
  const std::uint64_t expected = w.reference.size() * r.replays;
  const auto& fused = agg.fused();
  std::uint64_t corrupt = 0, short_witness = 0;
  for (const auto id : agg.sensor_ids()) {
    corrupt += agg.status(id).corrupt_dropped + agg.parse_stats(id).bad_crc +
               agg.parse_stats(id).bad_header_checksum;
  }
  for (const auto& f : fused) {
    if (f.witnesses != static_cast<int>(nodes.size())) ++short_witness;
  }
  // Fused events are created in publish order, so the retained tail of the
  // fused view is the log minus its first fused_pruned() entries.
  const auto log = Records(w.reference);
  auto want = Replayed(log, log, w.length, r.replays);
  want.erase(want.begin(),
             want.begin() + static_cast<std::ptrdiff_t>(
                                std::min<std::uint64_t>(agg.fused_pruned(),
                                                        want.size())));
  const SetDiff diff = CompareSets(fused, want, /*slack=*/0);
  const std::uint64_t total = agg.fused_pruned() + fused.size();
  char buf[300];
  std::snprintf(buf, sizeof(buf),
                "fused %llu (pruned %llu) vs log %llu; merges %llu (want "
                "%llu); %llu short of %zu witnesses; %llu corrupt; %llu "
                "missing, %llu unexpected",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(agg.fused_pruned()),
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(agg.merges()),
                static_cast<unsigned long long>(expected * (nodes.size() - 1)),
                static_cast<unsigned long long>(short_witness), nodes.size(),
                static_cast<unsigned long long>(corrupt),
                static_cast<unsigned long long>(diff.missing),
                static_cast<unsigned long long>(diff.unexpected));
  r.gate_detail = buf + diff.example;
  r.gate_ok = total == expected &&
              agg.merges() == expected * (nodes.size() - 1) &&
              short_witness == 0 && corrupt == 0 && diff.missing == 0 &&
              diff.unexpected == 0;
  r.recall = expected == 0 ? 1.0
                           : static_cast<double>(expected - diff.missing) /
                                 static_cast<double>(expected);
  r.precision = total == 0 ? 1.0
                           : static_cast<double>(total - diff.unexpected) /
                                 static_cast<double>(total);
  r.intervals = 0;
  return r;
}

}  // namespace

// ---------------------------------------------------------------- tracer

namespace {

/// The span clock of `layer`, in nanoseconds (see Tracer).
std::int64_t SpanNow(Layer layer) {
  if (layer == Layer::kPush) {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, Layer layer)
    : tracer_(tracer), layer_(layer) {
  if (tracer_ == nullptr) return;
  parent_ = t_open_span;
  t_open_span = this;
  start_ns_ = SpanNow(layer_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const std::int64_t ns = SpanNow(layer_) - start_ns_;
  const auto i = static_cast<std::size_t>(layer_);
  tracer_->self_ns_[i].fetch_add(ns - child_ns_, std::memory_order_relaxed);
  tracer_->count_[i].fetch_add(1, std::memory_order_relaxed);
  if (parent_ != nullptr) parent_->child_ns_ += ns;
  t_open_span = parent_;
}

double Tracer::SelfSeconds(Layer layer) const {
  return 1e-9 * static_cast<double>(
                    self_ns_[static_cast<std::size_t>(layer)].load());
}

std::uint64_t Tracer::Count(Layer layer) const {
  return count_[static_cast<std::size_t>(layer)].load();
}

ChainResult RunChain(const Workload& w, double seconds, Tracer* tracer) {
  return w.kind == Kind::kFleetFanin ? RunFleet(w, seconds, tracer)
                                     : RunEther(w, seconds, tracer);
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

double TimeSetup(const Workload& w) {
  const auto t0 = Clock::now();
  const Rig rig(w, nullptr);
  return Since(t0, Clock::now());
}

}  // namespace rfbench
