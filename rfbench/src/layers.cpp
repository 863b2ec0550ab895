// Detect / analysis layer figures for the traced run, from direct calls
// into the pipeline's public stage API over the base capture cut into the
// monitor's block size: RFDumpPipeline::Detect per block, then one
// AnalyzeDetections per bundle with the analysis bundle mask set to that
// bundle alone (serial), then one AnalyzeDetections with every bundle at
// the workload's width.

#include <algorithm>
#include <chrono>
#include <memory>

#include "bench.hpp"
#include "rfdump/core/executor.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/streaming.hpp"

namespace rfbench {
namespace {

double SecondsOf(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The analysed bundles, in the metric names' spelling.
struct BundleKey {
  core::Protocol protocol;
  const char* key;
};
constexpr BundleKey kBundles[] = {
    {core::Protocol::kWifi80211b, "phy80211"},
    {core::Protocol::kBluetooth, "phybt"},
    {core::Protocol::kZigbee, "phyzigbee"},
    {core::Protocol::kBleAdv, "phyble"},
};

}  // namespace

LayerPass RunLayerPass(const Workload& w) {
  LayerPass pass;
  pass.width = w.threads;
  for (const auto& b : kBundles) pass.bundles.push_back({b.key, 0.0, 0, 0});
  if (w.capture.empty()) return pass;  // fleet-fanin: no DSP layers

  core::RFDumpPipeline pipeline(w.pipeline);
  std::unique_ptr<core::Executor> wide;
  if (w.threads > 1) wide = std::make_unique<core::Executor>(w.threads);
  const std::size_t block = core::StreamingMonitor::Config{}.block_samples;

  std::uint64_t dispatched_samples = 0;  // union over protocols
  for (std::size_t off = 0; off < w.capture.size(); off += block) {
    const dsp::const_sample_span x(w.capture.data() + off,
                                   std::min(block, w.capture.size() - off));
    auto t0 = std::chrono::steady_clock::now();
    const core::DetectOutput det = pipeline.Detect(x);
    pass.detect_s += SecondsOf(t0);
    pass.dispatched_intervals += det.report.dispatched.size();
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
    for (const auto& d : det.report.dispatched) {
      spans.emplace_back(d.start_sample, d.end_sample);
    }
    std::sort(spans.begin(), spans.end());
    std::int64_t covered_to = 0;
    for (const auto& [s, e] : spans) {
      const std::int64_t from = std::max(s, covered_to);
      if (e > from) dispatched_samples += static_cast<std::uint64_t>(e - from);
      covered_to = std::max(covered_to, e);
    }

    for (std::size_t i = 0; i < std::size(kBundles); ++i) {
      core::DetectOutput one = det;
      one.analysis.bundle_mask = core::BundleBit(kBundles[i].protocol);
      for (const auto& d : det.report.dispatched) {
        if (d.protocol == kBundles[i].protocol) ++pass.bundles[i].intervals;
      }
      t0 = std::chrono::steady_clock::now();
      const auto rep = core::AnalyzeDetections(std::move(one), x);
      pass.bundles[i].seconds += SecondsOf(t0);
      for (const auto& e : rep.events) {
        if (e.protocol == kBundles[i].protocol) ++pass.bundles[i].events;
      }
    }

    core::DetectOutput all = det;
    t0 = std::chrono::steady_clock::now();
    (void)core::AnalyzeDetections(std::move(all), x, wide.get());
    pass.all_s += SecondsOf(t0);
  }
  pass.ether_s = static_cast<double>(w.capture.size()) / dsp::kSampleRateHz;
  pass.dispatch_frac = static_cast<double>(dispatched_samples) /
                       static_cast<double>(w.capture.size());
  return pass;
}

}  // namespace rfbench
