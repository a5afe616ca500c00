// Per-home shard store: simulate a home once, reuse it in every what-if
// variant that leaves it unchanged.
//
// A home's simulation is pure in three inputs: the service catalog, its
// ResidenceConfig and its day plans. The variants of a what-if forest
// differ in a timeline event, and an event changes the day plans of the
// homes it selects and of no other home (a cpe_fix repairs some broken-IPv6
// homes; the rest keep the static plan). So every other home simulates to
// the same shard (SimulationStats plus FlowMonitor) in every variant.
//
// The store keeps one shard per distinct HomeKey. engine::simulate_fleet,
// given a store, copies stored shards into its slots and simulates only the
// homes no pass has computed yet. Its reduction stays in residence-index
// order, so a fleet assembled from stored shards is byte-identical to one
// simulated from scratch: the merges are associative and commutative sums
// (cf. *Inference with Idempotent Valuations*, PAPERS.md).
//
// Concurrent simulate passes (the overlapped forest) share one store. A
// pass claims a key while it simulates it; another pass that needs the same
// key skips it, simulates the rest of its homes, then waits for the skipped
// ones. A thread holds at most one claim, and only while it simulates, so a
// wait always ends: every claim it waits on belongs to a thread that is
// computing, not waiting. Each distinct key is simulated once per store.
//
// The store belongs to an engine::PassCache (PassCache::home_shards) and
// lives as long as it. Its memory cost is one shard per distinct home key:
// for a 28-day home, about 0.12 MB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"
#include "flowmon/monitor.h"
#include "traffic/generator.h"
#include "traffic/residence.h"

namespace nbv6::engine {

/// What a simulated home leaves besides its config.
struct HomeShard {
  traffic::SimulationStats stats;
  flowmon::FlowMonitor monitor;
};

/// A home's simulation identity. `bytes` holds everything the simulator
/// reads: the catalog's content digest, every ResidenceConfig field (name
/// included; doubles by bit pattern, as DigestBuilder folds them) and the
/// day plan of every simulated day. `digest` is their FNV-1a hash. The
/// store matches on `bytes`, so two homes whose digests collide are two
/// keys, never one shard.
struct HomeKey {
  std::uint64_t digest = 0;
  std::string bytes;

  friend bool operator==(const HomeKey&, const HomeKey&) = default;
};

/// The key of home `cfg` under a catalog with content digest
/// `catalog_digest`. Evaluates cfg.day_plan_fn once per day in
/// [0, cfg.days), as the simulator does.
HomeKey home_key(std::uint64_t catalog_digest,
                 const traffic::ResidenceConfig& cfg);

class HomeShardStore {
  struct Cell;

 public:
  /// What acquire() found. Exactly one of `shard` and `pending` is set.
  struct Lookup {
    /// The home's shard: stored by an earlier pass, or simulated by this
    /// call (`simulated`).
    std::shared_ptr<const HomeShard> shard;
    bool simulated = false;
    /// Another pass is simulating this key; wait() blocks until it lands.
    std::shared_ptr<Cell> pending;
  };

  /// Returns the stored shard for `key`; or, when no pass has claimed the
  /// key, claims it, runs `simulate` (without holding the store's lock),
  /// stores the result and returns it; or, when another pass holds the
  /// claim, returns at once with `pending` set. If `simulate` throws, the
  /// claim is released with the error (its waiters rethrow it, and the key
  /// is free again) and the exception propagates.
  Lookup acquire(const HomeKey& key,
                 const std::function<HomeShard()>& simulate);

  /// The shard of a Lookup; blocks while its key is pending. Rethrows the
  /// claimant's exception if its simulation failed. Call it holding no
  /// claim (simulate_fleet waits only after its own homes are done).
  std::shared_ptr<const HomeShard> wait(const Lookup& lookup);

  /// Shards stored so far (distinct keys simulated).
  [[nodiscard]] std::size_t size() const;

  /// Test seams. `digest` replaces a key's digest on lookup, to force
  /// collisions; `before_simulate` runs under each claim before its
  /// simulation, to inject failures. Set before the store is shared.
  struct TestHooks {
    std::function<std::uint64_t(const HomeKey&)> digest;
    std::function<void()> before_simulate;
  };
  void set_test_hooks(TestHooks hooks) { hooks_ = std::move(hooks); }

 private:
  /// One key's entry. Its fields are read and written under mu_ only; the
  /// shared_ptr lets a waiter keep a failed cell after it left the map.
  struct Cell {
    std::string bytes;
    std::shared_ptr<const HomeShard> shard;  ///< set when it landed
    std::exception_ptr error;                ///< set when its claimant threw
  };

  mutable core::Mutex mu_;
  core::CondVar cv_;
  /// Digest -> the cells of every key with that digest.
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<Cell>>> cells_
      NBV6_GUARDED_BY(mu_);
  std::size_t stored_ NBV6_GUARDED_BY(mu_) = 0;
  TestHooks hooks_;  ///< written before sharing, read-only afterwards
};

}  // namespace nbv6::engine
