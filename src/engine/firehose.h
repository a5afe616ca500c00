// Flow events: the records of the streaming path.
//
// The batch path simulates residences to completion and reduces aggregate
// monitors; nothing downstream ever sees an individual flow in time order.
// The streaming path (stream_fleet, engine/run_spec.h) inverts that: it
// drives every fleet lane day-by-day, captures each generated flow with
// its (day, tick) coordinates in a FlowEventBuffer, and streams the
// records to a sink callback in a canonical global order — tick-major,
// then residence index, then generation order. That order is a pure
// function of the scenario (seed, horizon, arrival config), so the emitted
// stream is byte-identical for any lane count: the same replay guarantee
// the batch goldens pin, extended to a flow stream a downstream consumer
// (exporter, ingest daemon, backpressure experiment) could tap live.
//
// Throughput of this path — flows/sec/core out of bench/firehose_throughput
// — is the repo's headline benchmark.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/fleet.h"
#include "flowmon/flow_record.h"
#include "net/flow.h"

namespace nbv6::engine {

/// One generated flow as the streaming path emits it.
struct FlowEvent {
  std::uint32_t residence = 0;  ///< residence index in the sampled fleet
  std::int32_t day = 0;         ///< simulated day the flow was generated in
  /// Slot of the day the flow was generated in: the hour (batch mode) or
  /// the open-loop tick (day * ticks_per_day + tick_of_day ordering is the
  /// emission order).
  std::int32_t tick = 0;
  flowmon::Timestamp start = 0;  ///< open timestamp (seconds since day 0)
  flowmon::Timestamp end = 0;    ///< close timestamp
  net::FlowKey key;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  flowmon::Scope scope = flowmon::Scope::external;
};

/// A conntrack-shaped sink that records generated flows instead of
/// tracking them. The generator drives each flow as one consecutive
/// open → account → close triple, so the buffer appends on open and
/// completes the latest record on account/close; `advance(day, tick)` —
/// the generator's optional per-slot hook — stamps the coordinates.
/// Records accumulate until clear(); stream_fleet drains per day.
class FlowEventBuffer {
 public:
  void advance(int day, int tick) {
    day_ = day;
    tick_ = tick;
  }
  void open(const net::FlowKey& key, flowmon::Timestamp now,
            flowmon::Scope scope) {
    FlowEvent ev;
    ev.day = day_;
    ev.tick = tick_;
    ev.start = now;
    ev.end = now;
    ev.key = key;
    ev.scope = scope;
    events_.push_back(ev);
  }
  void account(const net::FlowKey&, flowmon::Timestamp, std::uint64_t out,
               std::uint64_t in) {
    if (events_.empty()) return;
    events_.back().bytes_out += out;
    events_.back().bytes_in += in;
  }
  void close(const net::FlowKey&, flowmon::Timestamp now) {
    if (events_.empty()) return;
    events_.back().end = now;
  }
  void flush(flowmon::Timestamp) {}  // nothing is retained open

  [[nodiscard]] std::vector<FlowEvent>& events() { return events_; }
  [[nodiscard]] const std::vector<FlowEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<FlowEvent> events_;
  int day_ = 0;
  int tick_ = 0;
};

}  // namespace nbv6::engine
