// Parallel analysis speedup (DESIGN.md §10): the demodulator bank fanned
// out over a work-stealing executor must (a) produce a MonitorReport whose
// result-bearing fields are bit-identical to the serial run — parallelism is
// only allowed to move wall time — and (b) cut the analysis-stage wall time
// by >= 2x at 4 workers on hardware that actually has them.
//
// Strategy: build the Table-3 traffic mix (Wi-Fi pings + a Bluetooth ACL
// session, the workload with the richest dispatched-interval population),
// run Detect() once, then time AnalyzeDetections() over the same detection
// output at widths 1 and 4: one warm-up run per width, then interleaved
// trials (the two widths back to back, alternating which goes first, so
// host noise hits both alike) and the median of each. Result equality —
// testing::ExactFingerprint over every detection, decode and event — is a
// hard gate everywhere; the speedup gate only applies when
// std::thread::hardware_concurrency() >= 4 — on smaller hosts (CI
// containers) the bench reports the ratio and SKIPs that gate, because a
// 1-core box cannot demonstrate parallel speedup.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "rfdump/core/executor.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/testing/differential.hpp"

namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  bench::PrintHeader("Parallel analysis speedup (Table-3 traffic mix)");

  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig wcfg;
  wcfg.count = bench::Scaled(40);
  wcfg.interval_us = 14000.0;
  wcfg.snr_db = 25.0;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wcfg, 8000);
  rfdump::traffic::L2PingConfig bcfg;
  bcfg.count = bench::Scaled(60);
  bcfg.snr_db = 25.0;
  const auto bs = rfdump::traffic::GenerateL2Ping(ether, bcfg, 12000);
  const auto x = ether.Render(std::max(ws.end_sample, bs.end_sample) + 8000);
  const double real_seconds =
      static_cast<double>(x.size()) / dsp::kSampleRateHz;

  core::RFDumpPipeline::Config cfg;
  core::RFDumpPipeline pipeline(cfg);

  // Detection runs once; both widths analyze the *same* detection output.
  const auto det = pipeline.Detect(x);
  std::printf("capture: %.3f s of ether, %zu dispatched intervals\n\n",
              real_seconds, det.report.dispatched.size());

  core::Executor serial(1);
  core::Executor wide(4);
  const auto run = [&](core::Executor& executor, core::MonitorReport& out) {
    auto copy = det;  // AnalyzeDetections consumes its input
    rfdump::obs::Stopwatch w;
    auto report = core::AnalyzeDetections(std::move(copy), x, &executor);
    const double seconds = w.Seconds();
    out = std::move(report);
    return seconds;
  };
  core::MonitorReport serial_report, parallel_report;
  (void)run(serial, serial_report);  // warm-up
  (void)run(wide, parallel_report);
  constexpr int kTrials = 9;
  std::vector<double> t1s, t4s;
  for (int i = 0; i < kTrials; ++i) {
    if (i % 2 == 0) {
      t1s.push_back(run(serial, serial_report));
      t4s.push_back(run(wide, parallel_report));
    } else {
      t4s.push_back(run(wide, parallel_report));
      t1s.push_back(run(serial, serial_report));
    }
  }
  const double t1 = Median(t1s);
  const double t4 = Median(t4s);
  const double speedup = t4 > 0.0 ? t1 / t4 : 0.0;

  std::printf("median of %d interleaved trials after one warm-up run:\n",
              kTrials);
  const auto row = [&](const char* name, double t,
                       const std::vector<double>& ts) {
    std::printf("%-32s %8.4f s  (%.3fx real time; min %.4f, max %.4f)\n",
                name, t, t / real_seconds,
                *std::min_element(ts.begin(), ts.end()),
                *std::max_element(ts.begin(), ts.end()));
  };
  row("analysis, --threads 1", t1, t1s);
  row("analysis, --threads 4", t4, t4s);
  std::printf("%-32s %8.2fx\n\n", "speedup", speedup);

  // Hard gate at every width: bit-identical result-bearing report fields.
  const bool identical = rfdump::testing::ExactFingerprint(serial_report) ==
                         rfdump::testing::ExactFingerprint(parallel_report);
  std::printf("parallel report identical to serial: %s\n",
              identical ? "yes" : "NO");
  std::printf("  %zu wifi frames / %zu bt packets / %zu events / "
              "%zu detections\n",
              serial_report.wifi_frames.size(),
              serial_report.bt_packets.size(), serial_report.events.size(),
              serial_report.detections.size());

  // Under ThreadSanitizer the run is a race check, not a timing experiment:
  // instrumentation skews the two widths unevenly, so only the equality
  // gate applies.
  bool tsan = false;
#if defined(__SANITIZE_THREAD__)
  tsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  tsan = true;
#endif
#endif

  const unsigned hw = std::thread::hardware_concurrency();
  bool pass = identical;
  if (tsan) {
    std::printf("\n>=2x speedup gate: SKIP (ThreadSanitizer build — timing "
                "is not meaningful)\n");
  } else if (hw >= 4) {
    const bool fast_enough = speedup >= 2.0;
    std::printf("\n>=2x speedup at 4 workers (%u hardware threads): %s\n",
                hw, fast_enough ? "PASS" : "FAIL");
    pass = pass && fast_enough;
  } else {
    std::printf("\n>=2x speedup gate: SKIP (%u hardware thread%s — cannot "
                "demonstrate parallel speedup on this host)\n",
                hw, hw == 1 ? "" : "s");
  }
  std::printf("result equality: %s\n", identical ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
