// Stage functions of the scenario chain: sample → timeline → simulate, or
// sample → timeline → stream.
//
// A scenario runs one of two ways. The pass graph (engine/pipeline.h +
// core/scenario_pipeline.h) registers sample_stage, apply_timeline and
// simulate_fleet as passes, so a scenario sweep shares the sampled base
// population across variants through the pass cache. stream_fleet is the
// streaming path: it emits every generated flow to a sink instead of
// retaining per-residence monitors. Each stage is a pure function of its
// arguments, and none depends on the pool's lane count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "engine/firehose.h"
#include "engine/fleet.h"
#include "engine/shard_store.h"
#include "engine/timeline.h"

namespace nbv6::engine {

/// Holds only the flow-sink alias. The stage functions below name it, and
/// so does code built against this header that cannot change in step with
/// the library (the perfbench harness), so the name stays put.
struct RunSpec {
  /// Receives every emitted flow in the canonical lane-invariant stream
  /// order (see engine/firehose.h).
  using FlowSink = std::function<void(const FlowEvent&)>;
};

// ------------------------------------------------------- stage functions

/// Deterministically sample the residence population described by `cfg`,
/// with its stratum labels. The catalog supplies service names for the
/// per-household mix tilts.
SampledFleet sample_stage(const FleetConfig& cfg,
                          const traffic::ServiceCatalog& catalog);

/// How simulate_fleet came by its homes' shards.
struct HomeCounts {
  std::size_t simulated = 0;  ///< homes it simulated
  std::size_t reused = 0;     ///< homes it copied from the shard store
};

/// Simulate every residence into its own shard and reduce in residence-
/// index order. `pool` may be null (sequential); results are bit-identical
/// either way. With a shard store, a home whose key (engine/shard_store.h)
/// is stored is copied from the store instead of simulated, and a home it
/// simulates is stored; the result is bit-identical to a run without one.
/// `counts`, when given, receives how many homes went which way.
FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           std::span<const traffic::ResidenceConfig> configs,
                           ThreadPool* pool, HomeShardStore* shards = nullptr,
                           HomeCounts* counts = nullptr);

/// simulate_fleet(fleet.configs) carrying the stratum labels into the
/// result. Throws std::invalid_argument on traits/configs size mismatch.
FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           const SampledFleet& fleet, ThreadPool* pool,
                           HomeShardStore* shards = nullptr,
                           HomeCounts* counts = nullptr);

/// Streaming outcome of stream_fleet.
struct StreamStats {
  std::uint64_t flows = 0;  ///< records handed to the sink
  traffic::SimulationStats totals;
};

/// Drive the fleet day-by-day, emitting every generated flow to `sink` in
/// the canonical (day, tick, residence, generation) order on the calling
/// thread, so the sink needs no locking. Lanes parallelize within each
/// day; the stream is identical for any lane count. `fleet` is sampled and
/// planned (sample_stage, then apply_timeline). `days` and `arrival` come
/// from the scenario config (every sampled ResidenceConfig carries copies
/// of both).
StreamStats stream_fleet(const traffic::ServiceCatalog& catalog,
                         const SampledFleet& fleet, int days,
                         const traffic::ArrivalConfig& arrival,
                         ThreadPool* pool, const RunSpec::FlowSink& sink);

}  // namespace nbv6::engine
