#pragma once
// core::ResultSink — the one result-emission API (DESIGN.md §10).
//
// Parallelising the analysis stage forces a single synchronised emission
// point — the ordered merge hands results to exactly one consumer, in stream
// order — so that point is an interface both operating modes share:
//
//  * StreamingMonitor::Config::sink receives results continuously, block by
//    block, in absolute stream coordinates.
//  * RFDumpPipeline (every architecture) and AnalyzeDetections invoke an
//    optional sink as the report is completed, so a live consumer can
//    observe a batch run without walking the MonitorReport.
//
// Threading contract: emitters serialise all calls — a sink never sees two
// concurrent invocations, regardless of --threads, and events for one block
// arrive in stream order (health first, then frames/packets/detections).
// Sink implementations therefore need no locking of their own.

#include <vector>

#include "rfdump/core/pipeline.hpp"

namespace rfdump::core {

/// Receives monitoring results as they are produced. Default implementations
/// ignore everything, so a sink overrides only the events it wants.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// A decoded 802.11 frame. Positions are absolute stream sample indices.
  virtual void OnWifiFrame(const phy80211::DecodedFrame& frame) {
    (void)frame;
  }
  /// A decoded Bluetooth baseband packet.
  virtual void OnBtPacket(const phybt::DecodedBtPacket& packet) {
    (void)packet;
  }
  /// A decoded 802.15.4 (ZigBee) frame.
  virtual void OnZbFrame(const phyzigbee::DecodedZbFrame& frame) {
    (void)frame;
  }
  /// A generic protocol-tagged decode event (MonitorReport::events entry).
  /// Emitted for every decode, after the typed OnWifiFrame/OnBtPacket/
  /// OnZbFrame calls for the block; protocols without a typed vector (e.g.
  /// BLE advertising) are only visible here. Protocol-generic consumers
  /// should override this instead of the typed trio.
  virtual void OnEvent(const ProtocolEvent& event) { (void)event; }
  /// A raw detector tag (pre-dispatch).
  virtual void OnDetection(const Detection& detection) { (void)detection; }
  /// Block health (streaming: once per block; batch: once per health scan).
  virtual void OnHealth(const HealthReport& report) { (void)report; }
};

/// ResultSink that accumulates everything it receives — the test/tooling
/// workhorse for comparing a streamed emission against a batch report.
class CollectingSink final : public ResultSink {
 public:
  std::vector<phy80211::DecodedFrame> wifi_frames;
  std::vector<phybt::DecodedBtPacket> bt_packets;
  std::vector<phyzigbee::DecodedZbFrame> zb_frames;
  std::vector<ProtocolEvent> events;
  std::vector<Detection> detections;
  std::vector<HealthReport> health;

  void OnWifiFrame(const phy80211::DecodedFrame& frame) override {
    wifi_frames.push_back(frame);
  }
  void OnBtPacket(const phybt::DecodedBtPacket& packet) override {
    bt_packets.push_back(packet);
  }
  void OnZbFrame(const phyzigbee::DecodedZbFrame& frame) override {
    zb_frames.push_back(frame);
  }
  void OnEvent(const ProtocolEvent& event) override {
    events.push_back(event);
  }
  void OnDetection(const Detection& detection) override {
    detections.push_back(detection);
  }
  void OnHealth(const HealthReport& report) override {
    health.push_back(report);
  }
};

}  // namespace rfdump::core
