#include "engine/shard_store.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <utility>

#include "engine/pipeline.h"

namespace nbv6::engine {

namespace {

/// Appends fixed-width fields to a key's bytes. Doubles go in by bit
/// pattern, strings with their length first, so two keys have equal bytes
/// iff every field is bit-identical.
class KeyWriter {
 public:
  explicit KeyWriter(std::string& out) : out_(out) {}

  void u64(std::uint64_t v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out_.append(buf, sizeof v);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }

  void plan(const traffic::DayPlan& p) {
    // Binding every field by name makes a new DayPlan field a compile
    // error here until the key covers it.
    const auto& [activity_mult, device_v6_ok_frac, internal_v6_frac, outage,
                 nat64, prefix_epoch, service_down_mask, cgn_port_budget,
                 lambda_mult, flash_hour_mask, flash_mult] = p;
    f64(activity_mult);
    f64(device_v6_ok_frac);
    f64(internal_v6_frac);
    u64(outage ? 1 : 0);
    u64(nat64 ? 1 : 0);
    i64(prefix_epoch);
    u64(service_down_mask);
    i64(cgn_port_budget);
    f64(lambda_mult);
    u64(flash_hour_mask);
    f64(flash_mult);
  }

 private:
  std::string& out_;
};

}  // namespace

HomeKey home_key(std::uint64_t catalog_digest,
                 const traffic::ResidenceConfig& cfg) {
  // As in KeyWriter::plan: a new ResidenceConfig or ArrivalConfig field is
  // a compile error here until the key covers it.
  const auto& [name, days, start_weekday, activity_scale, device_v6_ok_frac,
               visibility, internal_flows_per_hour, internal_v6_frac,
               background_v4_bias, service_weight_overrides, away_day_ranges,
               day_plan_fn, arrival, seed] = cfg;
  const auto& [arrival_mode, ticks_per_hour] = arrival;

  HomeKey key;
  KeyWriter w(key.bytes);
  w.u64(catalog_digest);
  w.str(name);
  w.i64(days);
  w.i64(start_weekday);
  w.f64(activity_scale);
  w.f64(device_v6_ok_frac);
  w.f64(visibility);
  w.f64(internal_flows_per_hour);
  w.f64(internal_v6_frac);
  w.f64(background_v4_bias);
  w.u64(service_weight_overrides.size());
  for (const auto& [service, weight] : service_weight_overrides) {
    w.str(service);
    w.f64(weight);
  }
  w.u64(away_day_ranges.size());
  for (const auto& [first, last] : away_day_ranges) {
    w.i64(first);
    w.i64(last);
  }
  w.u64(static_cast<std::uint64_t>(arrival_mode));
  w.i64(ticks_per_hour);
  w.u64(seed);
  // The plans stand for day_plan_fn: the simulator asks it for exactly
  // these days (ResidenceSimulator::plan).
  for (int d = 0; d < days; ++d)
    w.plan(day_plan_fn ? day_plan_fn(d) : traffic::kStaticDayPlan);
  key.digest = DigestBuilder().str(key.bytes).value();
  return key;
}

HomeShardStore::Lookup HomeShardStore::acquire(
    const HomeKey& key, const std::function<HomeShard()>& simulate) {
  const std::uint64_t digest = hooks_.digest ? hooks_.digest(key) : key.digest;
  std::shared_ptr<Cell> cell;
  {
    core::MutexLock lock(mu_);
    std::vector<std::shared_ptr<Cell>>& bucket = cells_[digest];
    for (const auto& c : bucket) {
      if (c->bytes != key.bytes) continue;  // a collision, not this key
      Lookup found;
      if (c->shard != nullptr) {
        found.shard = c->shard;
      } else {
        found.pending = c;
      }
      return found;
    }
    cell = std::make_shared<Cell>();
    cell->bytes = key.bytes;
    bucket.push_back(cell);
  }

  // This thread now holds the claim on `cell`; it simulates without the
  // lock, so other passes keep looking up and claiming other keys.
  std::shared_ptr<const HomeShard> shard;
  try {
    if (hooks_.before_simulate) hooks_.before_simulate();
    shard = std::make_shared<const HomeShard>(simulate());
  } catch (...) {
    core::MutexLock lock(mu_);
    cell->error = std::current_exception();
    std::vector<std::shared_ptr<Cell>>& bucket = cells_[digest];
    bucket.erase(std::find(bucket.begin(), bucket.end(), cell));
    if (bucket.empty()) cells_.erase(digest);
    cv_.notify_all();
    throw;
  }
  core::MutexLock lock(mu_);
  cell->shard = shard;
  ++stored_;
  cv_.notify_all();
  Lookup done;
  done.shard = std::move(shard);
  done.simulated = true;
  return done;
}

std::shared_ptr<const HomeShard> HomeShardStore::wait(const Lookup& lookup) {
  if (lookup.pending == nullptr) return lookup.shard;
  const Cell& cell = *lookup.pending;
  core::MutexLock lock(mu_);
  while (cell.shard == nullptr && cell.error == nullptr) cv_.wait(lock);
  if (cell.error != nullptr) std::rethrow_exception(cell.error);
  return cell.shard;
}

std::size_t HomeShardStore::size() const {
  core::MutexLock lock(mu_);
  return stored_;
}

}  // namespace nbv6::engine
