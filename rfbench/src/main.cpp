// rfbench: the repository's end-to-end benchmark program.
//
//   rfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0 measures the untraced chain and prints every end-to-end
// metric; --trace 1 splits the time between an untraced and a traced run of
// the chain, adds a direct detect/analysis pass over the base capture, and
// prints every per-layer metric. Either way the run's correctness gate must
// pass, or the program exits non-zero without printing a result. The last
// stdout line is the result object; the line before it is the provenance
// record (host, build, input digest, raw wall/CPU figures).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "rfdump/core/protocols.hpp"
#include "rfdump/dsp/simd.hpp"

namespace rfbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile `p` of each replay's event latencies.
std::vector<double> ReplayPercentiles(const ChainResult& r, double p) {
  std::vector<double> out;
  for (const auto& v : r.latency_ms) {
    if (!v.empty()) out.push_back(Percentile(v, p));
  }
  return out;
}

std::size_t LatencySamples(const ChainResult& r) {
  std::size_t n = 0;
  for (const auto& v : r.latency_ms) n += v.size();
  return n;
}

/// One field of every chunk of the run.
std::vector<double> Chunks(const ChainResult& r,
                           double ChainResult::Chunk::*field) {
  std::vector<double> out;
  for (const auto& c : r.chunks) out.push_back(c.*field);
  return out;
}

std::string List(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Provenance(const Options& opt, const Workload& w,
                       const ChainResult& r, const std::vector<double>& setups) {
  const char* git = std::getenv("RFBENCH_GIT_DESCRIBE");
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(w.digest));
  return std::string("{\"provenance\": {") +
         "\"host\": {\"cpu\": " + Str(CpuModel()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_tier\": " +
         Str(dsp::simd::TierName(dsp::simd::ActiveTier())) +
         ", \"build_type\": " + Str(RFBENCH_BUILD_TYPE) +
         ", \"rfdump_obs\": " + (RFBENCH_OBS ? "true" : "false") +
         ", \"git_describe\": " + Str(git != nullptr ? git : "unknown") +
         "}, \"workload\": " + Str(w.name) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"trace\": " + (opt.trace ? "true" : "false") +
         ", \"smoke\": " + (opt.smoke ? "true" : "false") +
         ", \"input_digest\": " + Str(digest) +
         ", \"capture_samples\": " + std::to_string(w.length) +
         ", \"generate_s\": " + Num(w.generate_s) +
         ", \"setup_samples_s\": " + List(setups) +
         ", \"replays\": " + std::to_string(r.replays) +
         ", \"ether_s\": " + Num(r.ether_s) +
         ", \"wall_s\": " + Num(r.wall_s) +
         ", \"process_cpu_s\": " + Num(r.cpu_s) +
         ", \"main_thread_cpu_s\": " + Num(r.main_cpu_s) +
         ", \"latency_samples\": " + std::to_string(LatencySamples(r)) +
         ", \"replay_latency_p50_ms\": " + List(ReplayPercentiles(r, 0.50)) +
         ", \"replay_latency_p99_ms\": " + List(ReplayPercentiles(r, 0.99)) +
         ", \"batch_diffs\": " + std::to_string(r.batch_diffs) +
         ", \"chunk_wall_s\": " + List(Chunks(r, &ChainResult::Chunk::wall_s)) +
         ", \"chunk_cpu_s\": " + List(Chunks(r, &ChainResult::Chunk::cpu_s)) +
         ", \"gate\": " + Str(r.gate_detail) + "}}";
}

void PrintResult(const ChainResult& r, const std::vector<Metric>& metrics) {
  std::string m;
  for (const auto& x : metrics) {
    if (!m.empty()) m += ", ";
    m += Str(x.name) + ": {\"value\": " + Num(x.value) +
         ", \"unit\": " + Str(x.unit) + "}";
  }
  const std::uint64_t failed =
      r.published > r.received ? r.published - r.received : 0;
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.published, 1)),
              static_cast<unsigned long long>(failed), m.c_str());
  std::fflush(stdout);
}

std::vector<Metric> EndToEnd(const ChainResult& r,
                             const std::vector<double>& setups) {
  const double fail_frac =
      r.intervals == 0 ? 0.0
                       : static_cast<double>(r.failed_intervals) /
                             static_cast<double>(r.intervals);
  // Rates are medians over the run's one-replay chunks; a run too short
  // for chunks (the smoke mode) falls back to its whole-run totals.
  const bool chunked = !r.chunks.empty();
  const double x_realtime =
      chunked ? r.chunk_ether_s / Median(Chunks(r, &ChainResult::Chunk::wall_s))
              : r.ether_s / r.wall_s;
  return {
      {"setup_s", "s", Median(setups)},
      {"x_realtime", "x", x_realtime},
      {"cpu_per_rt", "s/ether-s",
       chunked ? Median(Chunks(r, &ChainResult::Chunk::cpu_s)) / r.chunk_ether_s
               : r.cpu_s / r.ether_s},
      // Events delivered per ether second of the run, at that rate: a
      // chunk's own count depends on where deliveries fall around its ends.
      {"events_per_s", "1/s",
       static_cast<double>(r.fused) / r.ether_s * x_realtime},
      // Medians over replays of each replay's median and p99: a burst of
      // load stretches a few replays, not the result.
      {"event_latency_p50_ms", "ms", Median(ReplayPercentiles(r, 0.50))},
      {"event_latency_p99_ms", "ms", Median(ReplayPercentiles(r, 0.99))},
      {"recall", "frac", r.recall},
      {"precision", "frac", r.precision},
      {"event_delivery_frac", "frac",
       r.published == 0 ? 1.0
                        : static_cast<double>(r.received) /
                              static_cast<double>(r.published)},
      {"interval_ok_frac", "frac", 1.0 - fail_frac},
      {"peak_rss_mb", "MiB", r.peak_rss_mb},
  };
}

std::vector<Metric> PerLayer(const Workload& w, const ChainResult& untraced,
                             const ChainResult& traced, const LayerPass& pass) {
  const auto& L = traced.layers;
  const double e = traced.ether_s;
  const auto per = [e](double v) { return v / e; };
  const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  // push_s is the pushing thread's CPU time inside PushSegment/Flush (a
  // pipelined monitor's wait for queue space is not in it). Detection
  // always runs on that thread; analysis does too unless the monitor is
  // pipelined (then it runs on the analyzer thread). The ledger books each
  // stage's wall time, which is its CPU time unless the host preempts it.
  const double ingest_s = L.push_s - L.ledger_detect_s -
                          (w.threads == 1 ? L.ledger_analysis_s : 0.0);
  const double pe = pass.ether_s;
  std::vector<Metric> m = {
      {"ingest.push_per_rt", "s/ether-s", per(ingest_s)},
      {"ingest.segments", "count/ether-s", per(static_cast<double>(L.segments))},
      {"ingest.gap_cuts", "count/ether-s", per(static_cast<double>(L.gap_cuts))},
      {"ingest.sanitized", "count/ether-s", per(static_cast<double>(L.sanitized))},
      {"ingest.batch_diffs", "count/ether-s",
       per(static_cast<double>(traced.batch_diffs))},
      {"detect.per_rt", "s/ether-s", ratio(pass.detect_s, pe)},
      {"detect.dispatched_intervals", "count/ether-s",
       ratio(static_cast<double>(pass.dispatched_intervals), pe)},
      {"detect.dispatch_frac", "frac", pass.dispatch_frac},
  };
  double serial_sum = 0.0;
  for (const auto& b : pass.bundles) {
    const std::string p = "analysis." + b.key;
    m.push_back({p + ".per_rt", "s/ether-s", ratio(b.seconds, pe)});
    m.push_back({p + ".intervals", "count/ether-s",
                 ratio(static_cast<double>(b.intervals), pe)});
    m.push_back({p + ".events", "count/ether-s",
                 ratio(static_cast<double>(b.events), pe)});
    m.push_back({p + ".yield", "events/interval",
                 ratio(static_cast<double>(b.events),
                       static_cast<double>(b.intervals))});
    serial_sum += b.seconds;
  }
  const double layer_self = L.push_s + L.sink_s + L.session_s +
                            L.transport_s + L.aggregator_s;
  const std::vector<Metric> rest = {
      {"analysis.all.per_rt", "s/ether-s", ratio(pass.all_s, pe)},
      {"executor.parallel_eff", "frac",
       ratio(serial_sum, pass.width * pass.all_s)},
      {"supervisor.failed_intervals", "count/ether-s",
       per(static_cast<double>(traced.failed_intervals))},
      {"sink.per_rt", "s/ether-s", per(L.sink_s)},
      {"sink.events", "count/ether-s", per(static_cast<double>(L.sink_events))},
      {"session.per_rt", "s/ether-s", per(L.session_s)},
      {"session.frames_sent", "count/ether-s",
       per(static_cast<double>(L.frames_sent))},
      {"session.retx_frac", "frac",
       ratio(static_cast<double>(L.retransmits),
             static_cast<double>(L.frames_sent))},
      {"transport.per_rt", "s/ether-s", per(L.transport_s)},
      {"transport.bytes_out", "B/ether-s", per(static_cast<double>(L.bytes_out))},
      {"transport.send_rejects", "count/ether-s",
       per(static_cast<double>(L.send_rejects))},
      {"transport.syscalls_per_frame", "calls/frame",
       ratio(static_cast<double>(L.syscalls),
             static_cast<double>(L.transport_frames))},
      {"aggregator.per_rt", "s/ether-s", per(L.aggregator_s)},
      {"aggregator.us_per_event", "us/event",
       ratio(1e6 * L.aggregator_s, static_cast<double>(traced.received))},
      {"aggregator.merges", "count/ether-s", per(static_cast<double>(L.merges))},
      {"aggregator.dups_dropped", "count/ether-s",
       per(static_cast<double>(L.dups_dropped))},
      {"aggregator.fused_pruned", "count/ether-s",
       per(static_cast<double>(L.fused_pruned))},
      {"trace.overhead_frac", "frac",
       1.0 - (traced.ether_s / traced.wall_s) /
                 (untraced.ether_s / untraced.wall_s)},
      {"trace.coverage", "frac",
       ratio(layer_self / traced.ether_s, untraced.wall_s / untraced.ether_s)},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Set-up samples, taken in a phase of their own with no other system
/// alive: each builds a whole system and tears it down again. The phase
/// lasts milliseconds, so it visits every CPU (CpuRotation) rather than
/// measure the neighbours of one core.
std::vector<double> SampleSetup(const Workload& w, int per_cpu) {
  CpuRotation rotation;
  std::vector<double> out;
  for (std::size_t c = 0; c < std::max<std::size_t>(rotation.size(), 1); ++c) {
    rotation.Next();
    for (int i = 0; i < per_cpu; ++i) out.push_back(TimeSetup(w));
  }
  return out;
}

bool CheckGate(const char* what, const ChainResult& r) {
  std::fprintf(stderr, "[rfbench] gate (%s): %s -> %s\n", what,
               r.gate_detail.c_str(), r.gate_ok ? "PASS" : "FAIL");
  return r.gate_ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rfbench --workload paper-mix|busy-ether|impaired-stream|"
               "fleet-fanin --seed N --seconds S --trace 0|1 [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    char* end = nullptr;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (v == nullptr) {
      return Usage();
    } else if (a == "--workload") {
      if (!ParseKind(v, opt.kind)) return Usage();
      have_workload = true;
      ++i;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return Usage();
      ++i;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) {
        return Usage();
      }
      ++i;
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return Usage();
      opt.trace = v[0] == '1';
      ++i;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();

  const Workload w = Generate(opt);
  std::fprintf(stderr,
               "[rfbench] %s seed %llu: %.3f s base capture, digest %016llx, "
               "generated in %.2f s\n",
               w.name.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<double>(w.length) / dsp::kSampleRateHz,
               static_cast<unsigned long long>(w.digest), w.generate_s);

  {
    std::map<std::string, std::pair<std::size_t, std::int64_t>> on_air;
    for (const auto& t : w.truth) {
      if (!t.visible) continue;
      auto& row = on_air[core::ProtocolName(t.protocol) + ("/" + t.kind)];
      ++row.first;
      row.second += t.end_sample - t.start_sample;
    }
    for (const auto& [name, row] : on_air) {
      std::fprintf(stderr, "[rfbench] input: %-22s %5zu bursts, airtime %.3f\n",
                   name.c_str(), row.first,
                   static_cast<double>(row.second) / static_cast<double>(w.length));
    }
  }

  // Warm-up: one replay through a throwaway system, so page faults, lazy
  // registry/SIMD set-up and cold caches stay out of the timed runs.
  if (!CheckGate("warm-up", RunChain(w, 0.0, nullptr))) return 3;

  if (!opt.trace) {
    const std::vector<double> setups = SampleSetup(w, opt.smoke ? 2 : 11);
    const ChainResult r = RunChain(w, opt.seconds, nullptr);
    if (!CheckGate("untraced", r)) return 3;
    if (!opt.smoke && LatencySamples(r) < 1000) {
      std::fprintf(stderr, "[rfbench] only %zu latency samples (< 1000)\n",
                   LatencySamples(r));
      return 4;
    }
    std::printf("%s\n", Provenance(opt, w, r, setups).c_str());
    PrintResult(r, EndToEnd(r, setups));
    return 0;
  }

  const ChainResult untraced = RunChain(w, opt.seconds / 2, nullptr);
  if (!CheckGate("untraced", untraced)) return 3;
  Tracer tracer;
  const ChainResult traced = RunChain(w, opt.seconds / 2, &tracer);
  if (!CheckGate("traced", traced)) return 3;
  const LayerPass pass = RunLayerPass(w);
  std::printf("%s\n", Provenance(opt, w, traced, {}).c_str());
  PrintResult(traced, PerLayer(w, untraced, traced, pass));
  return 0;
}

}  // namespace
}  // namespace rfbench

int main(int argc, char** argv) {
  try {
    return rfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rfbench] error: %s\n", e.what());
    return 1;
  }
}
