#pragma once
// Shared types of the end-to-end benchmark: workload inputs, the per-layer
// span recorder, and the results one run of the chain produces.

#include <sched.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/dsp/types.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/emu/frontend.hpp"
#include "rfdump/net/messages.hpp"

namespace rfbench {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;
namespace net = rfdump::net;

enum class Kind { kPaperMix, kBusyEther, kImpairedStream, kFleetFanin };

struct Options {
  Kind kind = Kind::kPaperMix;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short runs: every code path, in seconds.
  bool smoke = false;
};

/// Samples per fleet tick: the session/aggregator clocks advance one tick
/// per millisecond of ether (the aggregator's default mapping).
inline constexpr std::int64_t kSamplesPerTick = 8000;

/// Everything generated from the seed before the system under test starts.
/// The system receives only `capture` (as segments) or `reference` (as sink
/// calls, fleet-fanin); the rest feeds the correctness gates.
struct Workload {
  Kind kind = Kind::kPaperMix;
  std::string name;
  int threads = 1;
  /// Monitor pipeline config; the batch reference decode uses the same.
  core::RFDumpPipeline::Config pipeline;
  /// One rendered base capture, replayed back to back. Idle guard bands at
  /// both ends keep every frame inside one replay, and the length is a
  /// whole number of monitor block steps, so every replay meets the same
  /// block grid.
  dsp::SampleVec capture;
  std::int64_t length = 0;  // replay period in samples
  std::vector<emu::TruthRecord> truth;
  /// Batch RFDumpPipeline::Process decode of `capture` at width 1.
  std::vector<core::ProtocolEvent> reference;
  /// What a serial in-process StreamingMonitor emits for one replay
  /// (replay-relative positions): `streamed` for a replay another follows,
  /// `streamed_last` for the replay the stream ends with (paper-mix and
  /// busy-ether).
  std::vector<net::EventRecord> streamed, streamed_last;

  /// impaired-stream: emu::FrontEnd delivery schedules, one per replay in
  /// rotation, so a run averages over several fault draws. `capture` then
  /// holds the front end's clipped, DC-shifted samples, which every
  /// schedule shares; a delivery carrying a NaN burst owns its samples.
  struct Delivery {
    std::int64_t start = 0;  // sensor clock: true position + clock_skew
    std::size_t length = 0;
    int owned = -1;          // index into Schedule::owned, or -1
  };
  struct Schedule {
    std::vector<Delivery> deliveries;
    std::vector<dsp::SampleVec> owned;
    std::vector<emu::FaultRecord> faults;
  };
  std::vector<Schedule> schedules;
  std::int64_t clock_skew = 0;

  /// fleet-fanin: the sensors' clock skews (local = true + skew). The event
  /// log they replay is `reference`.
  std::vector<std::int64_t> sensor_skews;

  std::uint64_t digest = 0;  // FNV-1a of the generated input bytes
  double generate_s = 0.0;
};

[[nodiscard]] Workload Generate(const Options& opt);
[[nodiscard]] const char* KindName(Kind kind);
[[nodiscard]] bool ParseKind(const std::string& name, Kind& out);

// ------------------------------------------------------------ span tracer
// Spans are recorded by the benchmark around the public calls into each
// layer (no instrumentation inside the library). Each thread keeps its own
// open-span stack; a span's self time is its duration minus the time of the
// spans opened inside it on the same thread. Totals are kept per layer, in
// memory, and read once at the end.
//
// A kPush span counts the calling thread's CPU time, every other span wall
// time. A pipelined monitor blocks inside PushSegment while its analyzer
// queue is full; that wait is analysis backlog, not ingest work, and takes
// no CPU. The spans that can nest inside a push (the sink, when the monitor
// is serial) never block, so their wall time is their CPU time. The other
// layers keep the cheaper wall clock: they run many short calls per tick.

enum class Layer : int {
  kPush,        // StreamingMonitor::PushSegment / Flush
  kSink,        // ResultSink calls into MonitorSensorSink
  kSession,     // SensorEndpoint::Pump
  kTransport,   // Transport::Send / Poll
  kAggregator,  // AggregatorServer::Pump
  kCount,
};

class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    Layer layer_;
    std::int64_t start_ns_ = 0;
    std::int64_t child_ns_ = 0;
    Span* parent_ = nullptr;
  };

  [[nodiscard]] double SelfSeconds(Layer layer) const;
  [[nodiscard]] std::uint64_t Count(Layer layer) const;

 private:
  std::array<std::atomic<std::int64_t>, static_cast<int>(Layer::kCount)>
      self_ns_{};
  std::array<std::atomic<std::uint64_t>, static_cast<int>(Layer::kCount)>
      count_{};
};

// ----------------------------------------------------------- chain results

/// Per-layer figures the traced chain run gathers.
struct ChainLayers {
  double push_s = 0.0, sink_s = 0.0, session_s = 0.0, transport_s = 0.0,
         aggregator_s = 0.0;
  /// Monitor stage time booked by the library's own cost ledger during the
  /// chain run, split by the thread it ran on (detect runs on the pushing
  /// thread; analysis on the analyzer thread when pipelined).
  double ledger_detect_s = 0.0, ledger_analysis_s = 0.0;
  std::uint64_t segments = 0;
  std::uint64_t gap_cuts = 0;
  std::uint64_t sanitized = 0;
  std::uint64_t sink_events = 0;
  std::uint64_t frames_sent = 0, retransmits = 0;
  std::uint64_t bytes_out = 0, send_rejects = 0, syscalls = 0,
                transport_frames = 0;
  std::uint64_t merges = 0, dups_dropped = 0, fused_pruned = 0;
};

struct ChainResult {
  double ether_s = 0.0;      // ether replayed
  double wall_s = 0.0;       // first push -> last event delivered
  double cpu_s = 0.0;        // process CPU (all threads) over the same span
  double main_cpu_s = 0.0;   // driving thread's CPU (steal shows as a gap)
  double peak_rss_mb = 0.0;  // max RSS sampled during the run
  /// Event latencies, per replay (by the replay an event belongs to).
  std::vector<std::vector<double>> latency_ms;
  std::uint64_t published = 0;  // events handed to the sessions by sinks
  std::uint64_t received = 0;   // events the aggregator received
  std::uint64_t fused = 0;      // distinct events delivered (fused view)
  std::uint64_t intervals = 0, failed_intervals = 0;
  std::uint64_t replays = 0;
  /// The run cut into chunks of one replay each (`chunk_ether_s`), so
  /// every chunk does the same work. Rates are taken as medians over
  /// chunks, so a burst of load from elsewhere on the host moves a few
  /// chunks, not the result.
  struct Chunk {
    double wall_s = 0.0, cpu_s = 0.0;
  };
  std::vector<Chunk> chunks;
  double chunk_ether_s = 0.0;
  double recall = 0.0, precision = 0.0;
  /// Fused events that differ from the batch reference decode (gated at
  /// 1% of the batch events per replay: the streaming monitor is not
  /// batch-exact at block seams).
  std::uint64_t batch_diffs = 0;
  bool gate_ok = false;
  std::string gate_detail;
  ChainLayers layers;
};

/// Runs the deployed chain for `seconds`, replaying whole base captures
/// (ether workloads) or event-log blocks (fleet-fanin). `tracer` null =
/// untraced: no wrapper objects sit between the layers.
[[nodiscard]] ChainResult RunChain(const Workload& w, double seconds,
                                   Tracer* tracer);

/// Seconds to build the system once (monitor, executor threads, listener,
/// sessions, TCP dial/accept, hello, first ack).
[[nodiscard]] double TimeSetup(const Workload& w);

/// Pins the calling thread to each CPU it may use in turn, one per Next(),
/// and releases it on destruction. Threads it creates while pinned inherit
/// the CPU. A single busy thread otherwise stays on one core for a whole
/// run, and the cores of a shared host are slowed by their neighbours for
/// that long: runs that never left a slowed core read 1.5x slower. Moving
/// once per replay spreads every run's samples over all the cores.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves to the next CPU (best effort: a refused move stays put).
  void Next();
  /// CPUs in the rotation (0 if the affinity could not be read).
  [[nodiscard]] std::size_t size() const { return cpus_.size(); }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Per-layer detect/analysis figures from direct pipeline calls over the
/// base capture, cut into the monitor's block size.
struct LayerPass {
  double ether_s = 0.0;
  double detect_s = 0.0;
  std::uint64_t dispatched_intervals = 0;
  double dispatch_frac = 0.0;
  struct Bundle {
    std::string key;  // phy80211, phybt, phyzigbee, phyble
    double seconds = 0.0;
    std::uint64_t intervals = 0, events = 0;
  };
  std::vector<Bundle> bundles;
  double all_s = 0.0;  // one AnalyzeDetections call at the workload width
  int width = 1;
};

[[nodiscard]] LayerPass RunLayerPass(const Workload& w);

}  // namespace rfbench
