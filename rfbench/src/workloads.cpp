// Workload generation. Everything stochastic derives from --seed through
// testing::ScenarioBuilder (ether) and emu::FrontEnd (impairments), so the
// same seed gives bit-identical inputs; the printed digest proves it.
// Rendering and the batch reference decode are generator cost, paid before
// the system under test is built.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/obs/stopwatch.hpp"
#include "rfdump/testing/scenario.hpp"
#include "rfdump/util/rng.hpp"

namespace rfbench {
namespace {

namespace traffic = rfdump::traffic;
using rfdump::testing::ScenarioBuilder;

constexpr std::int64_t kMs = 8000;  // samples per millisecond at 8 Msps

void Mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

/// Table 3 / Fig. 9 operating point: 802.11b unicast pings and a Bluetooth
/// l2ping (DH5) session across the whole capture at low in-band airtime,
/// plus a microwave oven running for a fifth of it.
ScenarioBuilder PaperMix(std::uint64_t seed, bool smoke) {
  const std::int64_t span_ms = smoke ? 240 : 960;
  ScenarioBuilder b(seed, "paper-mix");
  traffic::WifiPingConfig wifi;
  wifi.interval_us = 30000.0;
  wifi.count = static_cast<std::size_t>(span_ms / 30);
  b.WifiPing(wifi, 2 * kMs);
  traffic::L2PingConfig bt;
  bt.count = static_cast<std::size_t>(span_ms * 1000 / 6250);  // 6.25 ms each
  b.L2Ping(bt, 3 * kMs);
  b.Microwave({}, span_ms * kMs * 2 / 5, span_ms * kMs / 5);
  return b;
}

/// Dense ether with every registered bundle on the air, one session after
/// another (~70% airtime): back-to-back 802.11b unicast pings, a broadcast
/// flood, a LIFS-spaced ZigBee burst, BLE advertising and a Bluetooth
/// l2ping session, with 802.11 beacons across the whole capture.
ScenarioBuilder BusyEther(std::uint64_t seed, bool smoke) {
  const std::size_t scale = smoke ? 1 : 8;
  ScenarioBuilder b(seed, "busy-ether");
  traffic::WifiPingConfig ping;
  ping.interval_us = 10000.0;  // one exchange every ~9 ms of airtime
  ping.count = 5 * scale;
  b.WifiPing(ping, 2 * kMs);
  traffic::WifiBroadcastConfig bcast;
  bcast.count = 6 * scale;
  b.WifiBroadcast(bcast);
  traffic::ZigbeeConfig zb;
  zb.count = 6 * scale;
  zb.interval_us = 0.0;  // LIFS-spaced, as a ZigBee node sends a burst
  b.Zigbee(zb);
  b.Traffic([scale](emu::Ether& ether, std::int64_t start, double) {
    traffic::BleAdvConfig ble;
    ble.count = 3 * scale;
    ble.interval_us = 3000.0;
    return traffic::GenerateBleAdv(ether, ble, start).end_sample;
  });
  traffic::L2PingConfig bt;
  bt.count = 8 * scale;  // 6.25 ms per request/response pair
  b.L2Ping(bt);
  traffic::BeaconConfig beacons;
  beacons.count = 5 * scale / 4 + 1;  // one per 102.4 ms
  b.Beacons(beacons, 5 * kMs);
  return b;
}

/// fleet-fanin's log, in publish order: the busy-ether decode tiled
/// `copies` times per replay (each copy shifted by a fixed stride) so the
/// fleet path, not the pump cadence, dominates. A copy that would land within twice the
/// aggregator's dedup slack of another event of its (protocol, channel) is
/// left out: every log event must be one distinct transmission.
std::vector<core::ProtocolEvent> Tile(std::vector<core::ProtocolEvent> events,
                                      std::int64_t length, int copies) {
  constexpr std::int64_t kStride = 4099;  // samples, ~0.5 ms
  constexpr std::int64_t kGuard = 2 * 64;
  std::vector<core::ProtocolEvent> out;
  for (int c = 0; c < copies; ++c) {
    for (const auto& e : events) {
      auto t = e;
      t.start_sample += c * kStride;
      t.end_sample += c * kStride;
      if (t.end_sample >= length) continue;
      const bool clash = std::any_of(out.begin(), out.end(), [&](const auto& o) {
        return o.protocol == t.protocol && o.channel == t.channel &&
               std::llabs(o.start_sample - t.start_sample) <= kGuard;
      });
      if (!clash) out.push_back(std::move(t));
    }
  }
  // Sinks publish in order of each event's last sample.
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.end_sample < b.end_sample;
  });
  return out;
}

/// Streams two replays through a serial monitor and keeps what it emits
/// for each: every replay but the last sees the next one's start in its
/// final block's overlap, the last one is cut by Flush().
void StreamedReference(Workload& w) {
  core::CollectingSink sink;
  core::StreamingMonitor::Config cfg;
  cfg.pipeline = w.pipeline;
  cfg.sink = &sink;
  core::StreamingMonitor monitor(cfg);
  for (std::int64_t k = 0; k < 2; ++k) monitor.PushSegment(k * w.length, w.capture);
  monitor.Flush();
  for (const auto& e : sink.events) {
    auto r = net::ToEventRecord(e);
    const bool last = r.start_sample >= w.length;
    if (last) {
      r.start_sample -= w.length;
      r.end_sample -= w.length;
    }
    (last ? w.streamed_last : w.streamed).push_back(r);
  }
}

/// impaired-stream: draws kSchedules front-end fault schedules over the
/// capture. Clipping and DC offset act on every delivered sample the same
/// way in every schedule, so they are applied to `capture` once (and
/// checked against what the front end delivered); each schedule keeps its
/// segment boundaries, drops, duplicates and NaN-burst segments.
void Impair(const Options& opt, rfdump::util::Xoshiro256& rng, Workload& w) {
  constexpr int kSchedules = 40;
  emu::FrontEnd::Config fe;
  fe.segment_min_samples = 4 * 1024;  // USB-bulk-sized deliveries
  fe.segment_max_samples = 32 * 1024;
  fe.drops_per_second = 4.0;
  fe.duplicates_per_second = 2.0;
  fe.nonfinite_per_second = 16.0;
  fe.clip_amplitude = 24.0f;
  fe.dc_offset = {0.05f, -0.02f};
  fe.clock_offset_samples =
      static_cast<std::int64_t>(rng.UniformInt(1'000, 5'000'000));
  w.clock_skew = fe.clock_offset_samples;
  w.pipeline.saturation_amplitude = fe.clip_amplitude;

  dsp::SampleVec shared = w.capture;
  const float rail = fe.clip_amplitude;
  for (auto& x : shared) {  // emu::FrontEnd's order: DC offset, then clip
    x += fe.dc_offset;
    x = dsp::cfloat(std::clamp(x.real(), -rail, rail),
                    std::clamp(x.imag(), -rail, rail));
  }
  for (int k = 0; k < kSchedules; ++k) {
    emu::FrontEnd frontend(w.capture, fe, opt.seed * kSchedules + k + 1);
    Workload::Schedule sched;
    for (auto& seg : frontend.DrainAll()) {
      Workload::Delivery d{seg.start_sample, seg.samples.size(), -1};
      const bool finite = std::all_of(
          seg.samples.begin(), seg.samples.end(), [](const dsp::cfloat& x) {
            return std::isfinite(x.real()) && std::isfinite(x.imag());
          });
      if (finite) {
        const auto at = static_cast<std::size_t>(seg.start_sample - w.clock_skew);
        if (std::memcmp(seg.samples.data(), shared.data() + at,
                        seg.samples.size() * sizeof(dsp::cfloat)) != 0) {
          throw std::logic_error("front-end clip/DC model out of date");
        }
      } else {
        d.owned = static_cast<int>(sched.owned.size());
        sched.owned.push_back(std::move(seg.samples));
      }
      sched.deliveries.push_back(d);
    }
    sched.faults = frontend.faults();
    w.schedules.push_back(std::move(sched));
  }
  w.capture = std::move(shared);
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kPaperMix: return "paper-mix";
    case Kind::kBusyEther: return "busy-ether";
    case Kind::kImpairedStream: return "impaired-stream";
    case Kind::kFleetFanin: return "fleet-fanin";
  }
  return "?";
}

bool ParseKind(const std::string& name, Kind& out) {
  for (const Kind k : {Kind::kPaperMix, Kind::kBusyEther, Kind::kImpairedStream,
                       Kind::kFleetFanin}) {
    if (name == KindName(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

Workload Generate(const Options& opt) {
  rfdump::obs::Stopwatch watch;
  Workload w;
  w.kind = opt.kind;
  w.name = KindName(opt.kind);
  const bool busy = opt.kind == Kind::kBusyEther || opt.kind == Kind::kFleetFanin;

  // Render with at least 6 ms of idle tail plus one block step, then cut
  // the capture to a whole number of steps: the tail guard stays >= 6 ms
  // and the block grid repeats with every replay.
  const core::StreamingMonitor::Config monitor_defaults;
  const auto step = static_cast<std::int64_t>(monitor_defaults.block_samples -
                                              monitor_defaults.overlap_samples);
  auto builder = busy ? BusyEther(opt.seed, opt.smoke)
                      : PaperMix(opt.seed, opt.smoke);
  auto scenario = builder.TailPadding(6 * kMs + step).Render();
  w.capture = std::move(scenario.samples);
  w.length = static_cast<std::int64_t>(w.capture.size()) / step * step;
  w.capture.resize(static_cast<std::size_t>(w.length));
  w.truth = std::move(scenario.truth);

  if (busy) {
    for (const auto& b : core::ProtocolRegistry::Instance().bundles()) {
      w.pipeline.EnableBundle(b.protocol);
    }
  } else {
    w.pipeline.EnableBundle(core::Protocol::kMicrowave);
  }
  w.threads = opt.kind == Kind::kBusyEther ? 3 : 1;
  if (opt.kind != Kind::kImpairedStream) {  // its gate is the fault log
    w.reference = core::RFDumpPipeline(w.pipeline).Process(w.capture).events;
  }
  if (opt.kind == Kind::kPaperMix || opt.kind == Kind::kBusyEther) {
    StreamedReference(w);
  }

  std::uint64_t h = 1469598103934665603ull;
  rfdump::util::Xoshiro256 rng(opt.seed ^ 0x5EED5EED5EEDull);
  switch (opt.kind) {
    case Kind::kPaperMix:
    case Kind::kBusyEther:
      Mix(h, w.capture.data(), w.capture.size() * sizeof(dsp::cfloat));
      break;
    case Kind::kImpairedStream:
      Impair(opt, rng, w);
      Mix(h, &w.clock_skew, sizeof(w.clock_skew));
      Mix(h, w.capture.data(), w.capture.size() * sizeof(dsp::cfloat));
      for (const auto& sched : w.schedules) {
        for (const auto& d : sched.deliveries) {
          Mix(h, &d.start, sizeof(d.start));
          Mix(h, &d.length, sizeof(d.length));
        }
        for (const auto& o : sched.owned) {
          Mix(h, o.data(), o.size() * sizeof(dsp::cfloat));
        }
      }
      break;
    case Kind::kFleetFanin: {
      w.reference = Tile(std::move(w.reference), w.length, opt.smoke ? 4 : 16);
      for (int i = 0; i < 3; ++i) {
        w.sensor_skews.push_back(
            static_cast<std::int64_t>(rng.UniformInt(1'000, 20'000'000)));
      }
      for (const auto& e : w.reference) {
        Mix(h, &e.protocol, sizeof(e.protocol));
        Mix(h, &e.start_sample, sizeof(e.start_sample));
        Mix(h, &e.end_sample, sizeof(e.end_sample));
        Mix(h, e.payload.data(), e.payload.size());
      }
      dsp::SampleVec().swap(w.capture);  // the fleet sees only the event log
      break;
    }
  }
  w.digest = h;
  w.generate_s = watch.Seconds();
  return w;
}

}  // namespace rfbench
