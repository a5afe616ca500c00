#include "engine/pipeline.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <exception>
#include <map>
#include <utility>

#include "core/thread_annotations.h"

namespace nbv6::engine {

DigestBuilder& DigestBuilder::f64(double v) {
  return u64(std::bit_cast<std::uint64_t>(v));
}

// ----------------------------------------------------------------- cache

std::optional<std::vector<PipelineValue>> PassCache::find(
    std::uint64_t digest, std::string_view pass,
    std::size_t output_count) const {
  core::MutexLock lock(mutex_);
  auto it = map_.find(digest);
  if (it == map_.end()) return std::nullopt;
  // A digest collision across passes (different name, or same name with a
  // different arity after a replace()) must read as a miss, not as someone
  // else's outputs.
  if (it->second.pass != pass || it->second.outputs.size() != output_count)
    return std::nullopt;
  return it->second.outputs;  // copies shared handles, not payloads
}

void PassCache::store(std::uint64_t digest, std::string_view pass,
                      std::vector<PipelineValue> outputs) {
  core::MutexLock lock(mutex_);
  map_[digest] = Entry{std::string(pass), std::move(outputs)};
}

bool PassCache::erase(std::uint64_t digest, std::string_view pass) {
  core::MutexLock lock(mutex_);
  auto it = map_.find(digest);
  if (it == map_.end() || it->second.pass != pass) return false;
  map_.erase(it);
  return true;
}

std::size_t PassCache::size() const {
  core::MutexLock lock(mutex_);
  return map_.size();
}

void PassCache::clear() {
  core::MutexLock lock(mutex_);
  map_.clear();
}

// --------------------------------------------------------------- context

const PipelineValue& PassContext::input_value(std::string_view name) const {
  for (std::size_t i = 0; i < input_names_->size(); ++i) {
    if ((*input_names_)[i] == name) return *(*inputs_)[i];
  }
  throw std::logic_error("pass reads undeclared input '" + std::string(name) +
                         "'");
}

void PassContext::set_output(std::string_view name, PipelineValue v) {
  for (std::size_t i = 0; i < output_names_->size(); ++i) {
    if ((*output_names_)[i] == name) {
      if ((*outputs_)[i].has_value())
        throw std::logic_error("pass sets output '" + std::string(name) +
                               "' twice");
      (*outputs_)[i] = std::move(v);
      return;
    }
  }
  throw std::logic_error("pass sets undeclared output '" + std::string(name) +
                         "'");
}

// -------------------------------------------------------------- pipeline

Pipeline& Pipeline::add(Pass pass) {
  if (!pass.run)
    throw std::invalid_argument("pass '" + pass.name + "' has no run function");
  for (const auto& n : nodes_) {
    if (n.pass.name == pass.name)
      throw std::invalid_argument("duplicate pass name '" + pass.name + "'");
  }
  for (const auto& out : pass.outputs) {
    if (producer_.contains(out))
      throw std::invalid_argument("resource '" + out +
                                  "' already has a producer");
  }
  const std::size_t idx = nodes_.size();
  for (const auto& out : pass.outputs) producer_.emplace(out, idx);
  nodes_.push_back(Node{std::move(pass), 0, 0});
  order_valid_ = false;
  return *this;
}

Pipeline& Pipeline::replace(const Pass& pass) {
  const std::size_t idx = index_of(pass.name);
  if (!pass.run)
    throw std::invalid_argument("pass '" + pass.name + "' has no run function");
  // Re-key the producer map: the replacement may rename outputs.
  for (const auto& out : nodes_[idx].pass.outputs) producer_.erase(out);
  for (const auto& out : pass.outputs) {
    if (producer_.contains(out)) {
      // Roll back before throwing so the pipeline stays consistent.
      for (const auto& old : nodes_[idx].pass.outputs)
        producer_.emplace(old, idx);
      throw std::invalid_argument("resource '" + out +
                                  "' already has a producer");
    }
  }
  for (const auto& out : pass.outputs) producer_.emplace(out, idx);
  nodes_[idx].pass = pass;
  order_valid_ = false;
  return *this;
}

void Pipeline::set_config_digest(std::string_view pass, std::uint64_t digest) {
  nodes_[index_of(pass)].pass.config_digest = digest;
}

std::size_t Pipeline::index_of(std::string_view pass) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].pass.name == pass) return i;
  }
  throw std::invalid_argument("unknown pass '" + std::string(pass) + "'");
}

void Pipeline::ensure_order() {
  if (order_valid_) return;
  order_.clear();
  order_.reserve(nodes_.size());

  // Kahn's algorithm over producer edges, visiting ready passes in
  // registration order so the schedule is deterministic.
  std::vector<std::size_t> pending(nodes_.size(), 0);
  std::vector<std::vector<std::size_t>> dependents(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const auto& in : nodes_[i].pass.inputs) {
      auto it = producer_.find(in);
      if (it == producer_.end())
        throw std::invalid_argument("pass '" + nodes_[i].pass.name +
                                    "' consumes resource '" + in +
                                    "' that no pass produces");
      dependents[it->second].push_back(i);
      ++pending[i];
    }
  }
  std::vector<bool> scheduled(nodes_.size(), false);
  bool progressed = true;
  while (order_.size() < nodes_.size() && progressed) {
    progressed = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (scheduled[i] || pending[i] != 0) continue;
      scheduled[i] = true;
      order_.push_back(i);
      for (std::size_t dep : dependents[i]) --pending[dep];
      progressed = true;
    }
  }
  if (order_.size() < nodes_.size()) {
    std::string cyclic;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!scheduled[i]) cyclic += (cyclic.empty() ? "" : ", ") + nodes_[i].pass.name;
    }
    throw std::invalid_argument("dependency cycle among passes: " + cyclic);
  }
  order_valid_ = true;
}

Pipeline::RunStats Pipeline::run(PassCache* cache, ThreadPool* pool) {
  // The run-local cache holds only what bound_ holds anyway and dies with
  // the call, so an uncached run still executes every pass.
  PassCache local;
  ForestScheduler::Options opts;
  opts.pool = pool;
  return ForestScheduler::run({this}, cache != nullptr ? *cache : local, opts);
}

const PipelineValue& Pipeline::output_value(std::string_view resource) const {
  auto it = bound_.find(std::string(resource));
  if (it == bound_.end())
    throw std::logic_error("resource '" + std::string(resource) +
                           "' is not bound (unknown, or the pipeline has not "
                           "run)");
  return it->second;
}

std::uint64_t Pipeline::executions(std::string_view pass) const {
  return nodes_[index_of(pass)].executions;
}

std::vector<std::string> Pipeline::schedule() {
  ensure_order();
  std::vector<std::string> out;
  out.reserve(order_.size());
  for (std::size_t idx : order_) out.push_back(nodes_[idx].pass.name);
  return out;
}

// ---------------------------------------------------------------- forest

namespace detail {

/// One pipeline pass in the merged forest frontier.
struct ForestNode {
  Pipeline* pipe = nullptr;
  std::size_t node_idx = 0;             ///< into pipe->nodes_
  std::uint64_t digest = 0;
  std::size_t pending = 0;              ///< producer edges not yet satisfied
  std::vector<std::size_t> dependents;  ///< forest indices, same pipeline
  /// Input pointers into pipe->bound_, prepared under the scheduler lock
  /// when the node turns ready; element addresses are rehash-stable, so an
  /// executing task reads them without touching the map itself.
  std::vector<PipelineValue*> inputs;
  bool registered_inflight = false;
  bool scheduled = false;  ///< on_ready already fired for this node
  bool done = false;
};

/// One transient resource instance — a (name, resource digest) value,
/// possibly bound by several pipelines that share it through the cache.
struct TransientInstance {
  std::string name;
  std::uint64_t producer_digest = 0;  ///< cache key of the producing pass
  std::string producer_pass;
  bool producer_cacheable = true;
  /// Cache entries hold the producer's whole output list, so the entry is
  /// erased on release only when every output of that pass is transient.
  bool producer_all_transient = true;
  std::size_t remaining = 0;          ///< forest-wide consumers not yet done
  /// Holder producer nodes not yet finished. Release waits for this to hit
  /// zero as well as `remaining`: erasing the cache entry while a
  /// digest-identical twin's producer is still pending would force the twin
  /// to re-execute a deduped pass (and double-count the release).
  std::size_t producers_pending = 0;
  std::vector<Pipeline*> holders;     ///< pipelines binding this instance
  bool live = false;                  ///< produced and not yet released
};

struct ForestRun {
 public:
  ForestRun(const std::vector<Pipeline*>& pipelines, PassCache& cache,
            const ForestScheduler::Options& opts)
      : pipes_(pipelines),
        cache_(cache),
        opts_(opts),
        workers_(std::max(1, opts.workers)),
        parallel_(opts.pool != nullptr && opts.workers > 1) {}

  ForestScheduler::Stats run() {
    {
      core::MutexLock lock(m_);
      prepare();
      // Seed in (pipeline order, schedule order): deterministic, so which
      // digest-equal twin becomes the runner and which become waiters never
      // depends on thread timing for frontier-level passes.
      for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].pending == 0) on_ready(i);
    }
    if (parallel_)
      drive_parallel();
    else
      drive_inline();
    // Both drivers have quiesced every task, but the analysis only knows
    // error_/stats_ as guarded state — copy them out under the lock.
    std::exception_ptr err;
    ForestScheduler::Stats stats;
    {
      core::MutexLock lock(m_);
      err = error_;
      stats = stats_;
    }
    if (err) {
      // No partial state: a failed forest leaves no pipeline serving a
      // stale/fresh mix.
      for (Pipeline* p : pipes_) p->bound_.clear();
      std::rethrow_exception(err);
    }
    return stats;
  }

 private:
  // ------------------------------------------------------------- build

  void prepare() NBV6_REQUIRES(m_) {
    for (Pipeline* p : pipes_) {
      if (p == nullptr)
        throw std::invalid_argument("ForestScheduler: null pipeline");
      p->ensure_order();
      p->bound_.clear();
    }
    for (std::size_t a = 0; a < pipes_.size(); ++a)
      for (std::size_t b = a + 1; b < pipes_.size(); ++b)
        if (pipes_[a] == pipes_[b])
          throw std::invalid_argument(
              "ForestScheduler: the same pipeline appears twice");

    const std::vector<std::string>& transient = opts_.transient;
    auto is_transient = [&transient](const std::string& name) {
      return std::find(transient.begin(), transient.end(), name) !=
             transient.end();
    };

    // Instances keyed by (resource name, resource digest): pipelines whose
    // producer digests agree share one instance (and one payload).
    std::map<std::pair<std::string, std::uint64_t>, std::size_t> instance_key;

    for (Pipeline* p : pipes_) {
      // Digests are a pure function of the graph, so the whole cascade is
      // computable up front, in topological order.
      std::unordered_map<std::string, std::uint64_t> resource_digest;
      std::unordered_map<std::size_t, std::size_t> forest_idx;  // node->forest
      for (std::size_t idx : p->order_) {
        Pipeline::Node& node = p->nodes_[idx];
        const Pass& pass = node.pass;
        DigestBuilder db;
        db.str(pass.name).u64(pass.config_digest);
        for (const auto& in : pass.inputs) db.u64(resource_digest.at(in));
        const std::uint64_t digest = db.value();
        node.last_digest = digest;
        for (std::size_t o = 0; o < pass.outputs.size(); ++o) {
          resource_digest[pass.outputs[o]] =
              DigestBuilder().u64(digest).u64(o).value();
        }
        ForestNode fn;
        fn.pipe = p;
        fn.node_idx = idx;
        fn.digest = digest;
        fn.pending = pass.inputs.size();
        forest_idx.emplace(idx, nodes_.size());
        nodes_.push_back(std::move(fn));
      }
      for (std::size_t idx : p->order_) {  // deterministic edge order
        const std::size_t fi = forest_idx.at(idx);
        for (const auto& in : p->nodes_[idx].pass.inputs)
          nodes_[forest_idx.at(p->producer_.at(in))].dependents.push_back(fi);
      }

      // Transient bookkeeping for this pipeline: producer side...
      for (const std::string& name : transient) {
        auto pit = p->producer_.find(name);
        if (pit == p->producer_.end()) continue;
        const Pipeline::Node& prod = p->nodes_[pit->second];
        const auto key = std::make_pair(name, resource_digest.at(name));
        auto [kit, created] =
            instance_key.emplace(key, instances_.size());
        if (created) {
          TransientInstance inst;
          inst.name = name;
          inst.producer_digest = prod.last_digest;
          inst.producer_pass = prod.pass.name;
          inst.producer_cacheable = prod.pass.cache_outputs;
          inst.producer_all_transient = true;
          for (const auto& out : prod.pass.outputs)
            if (!is_transient(out)) inst.producer_all_transient = false;
          instances_.push_back(std::move(inst));
        }
        instances_[kit->second].holders.push_back(p);
        ++instances_[kit->second].producers_pending;
        instance_of_.emplace(std::make_pair(p, name), kit->second);
      }
      // ...and consumer side (one decrement per declared input occurrence).
      for (const auto& node : p->nodes_) {
        for (const auto& in : node.pass.inputs) {
          auto iit = instance_of_.find(std::make_pair(p, in));
          if (iit != instance_of_.end()) ++instances_[iit->second].remaining;
        }
      }
    }
  }

  // ---------------------------------------------- scheduling (lock held)

  const Pass& pass_of(const ForestNode& n) const {
    return n.pipe->nodes_[n.node_idx].pass;
  }

  void on_ready(std::size_t i) NBV6_REQUIRES(m_) {
    ForestNode& n = nodes_[i];
    // Fire-once guard: a warm-cache hit during seeding completes a frontier
    // node synchronously, and finish_node's recursion can complete its
    // dependents (pending now 0) before the seed loop reaches them — the
    // loop must not re-ready a node the recursion already handled.
    if (n.scheduled) return;
    n.scheduled = true;
    const Pass& pass = pass_of(n);
    // Prepare input pointers while the lock serializes bound_ mutations;
    // the executing task then only dereferences stable element addresses.
    n.inputs.clear();
    n.inputs.reserve(pass.inputs.size());
    for (const auto& in : pass.inputs)
      n.inputs.push_back(&n.pipe->bound_.at(in));

    if (pass.cache_outputs) {
      if (auto hit = cache_.find(n.digest, pass.name, pass.outputs.size())) {
        bind_outputs(i, *hit);
        ++stats_.cached;
        finish_node(i);
        return;
      }
      auto fit = inflight_.find(n.digest);
      if (fit != inflight_.end()) {
        if (fit->second.pass == pass.name &&
            fit->second.output_count == pass.outputs.size()) {
          fit->second.waiters.push_back(i);  // dedup: bind when the twin lands
          return;
        }
        // Digest collision with a different in-flight pass: run separately.
      } else {
        inflight_.emplace(n.digest,
                          InFlight{pass.name, pass.outputs.size(), {}});
        n.registered_inflight = true;
      }
    }
    ready_.push_back(i);
  }

  void bind_outputs(std::size_t i, const std::vector<PipelineValue>& outputs)
      NBV6_REQUIRES(m_) {
    ForestNode& n = nodes_[i];
    const Pass& pass = pass_of(n);
    for (std::size_t o = 0; o < pass.outputs.size(); ++o)
      n.pipe->bound_[pass.outputs[o]] = outputs[o];
  }

  /// Post-bind bookkeeping: transient production/consumption accounting,
  /// then readiness propagation (which may recurse through cache-hit
  /// chains). Callers bind the node — and every dedup waiter sharing the
  /// result — *before* any finish_node call, so a release triggered here
  /// can never race a sibling's bind.
  void finish_node(std::size_t i) NBV6_REQUIRES(m_) {
    ForestNode& n = nodes_[i];
    const Pass& pass = pass_of(n);
    n.done = true;
    ++done_count_;

    for (const auto& out : pass.outputs) {
      auto iit = instance_of_.find(std::make_pair(n.pipe, out));
      if (iit == instance_of_.end()) continue;
      TransientInstance& inst = instances_[iit->second];
      if (!inst.live) {
        inst.live = true;
        ++resident_;
        stats_.peak_resident = std::max(stats_.peak_resident, resident_);
      }
      --inst.producers_pending;
      // Consumerless transient: released once the last producing pipeline
      // has bound it, not on first production — an early release would
      // erase the cache entry a digest-identical twin still needs.
      if (inst.producers_pending == 0 && inst.remaining == 0) release(inst);
    }
    for (const auto& in : pass.inputs) {
      auto iit = instance_of_.find(std::make_pair(n.pipe, in));
      if (iit == instance_of_.end()) continue;
      TransientInstance& inst = instances_[iit->second];
      if (--inst.remaining == 0 && inst.producers_pending == 0 && inst.live)
        release(inst);
    }

    for (std::size_t d : n.dependents)
      if (--nodes_[d].pending == 0) on_ready(d);
  }

  void release(TransientInstance& inst) NBV6_REQUIRES(m_) {
    inst.live = false;
    --resident_;
    ++stats_.released;
    for (Pipeline* p : inst.holders) p->bound_.erase(inst.name);
    if (inst.producer_cacheable && inst.producer_all_transient)
      cache_.erase(inst.producer_digest, inst.producer_pass);
  }

  void complete_executed(std::size_t i, std::vector<PipelineValue> outputs)
      NBV6_REQUIRES(m_) {
    ForestNode& n = nodes_[i];
    const Pass& pass = pass_of(n);
    ++n.pipe->nodes_[n.node_idx].executions;
    ++stats_.executed;

    std::vector<std::size_t> waiters;
    if (n.registered_inflight) {
      auto fit = inflight_.find(n.digest);
      waiters = std::move(fit->second.waiters);
      inflight_.erase(fit);
    }
    bind_outputs(i, outputs);
    for (std::size_t w : waiters) bind_outputs(w, outputs);
    if (pass.cache_outputs)
      cache_.store(n.digest, pass.name, std::move(outputs));
    finish_node(i);
    for (std::size_t w : waiters) {
      ++stats_.deduped;
      finish_node(w);
    }
  }

  void dispatch_locked() NBV6_REQUIRES(m_) {
    while (!aborting_ && running_ < static_cast<std::size_t>(workers_) &&
           !ready_.empty()) {
      const std::size_t i = ready_.back();
      ready_.pop_back();
      ++running_;
      opts_.pool->submit([this, i] { run_task(i); });
    }
  }

  // --------------------------------------------------------- execution

  /// Runs the pass body. No lock: inputs were pinned at ready time and the
  /// pass definition is immutable for the duration of the forest run.
  std::vector<PipelineValue> execute(std::size_t i, ThreadPool* pass_pool) {
    ForestNode& n = nodes_[i];
    const Pass& pass = pass_of(n);
    std::vector<PipelineValue> outputs(pass.outputs.size());
    PassContext ctx;
    ctx.input_names_ = &pass.inputs;
    ctx.inputs_ = &n.inputs;
    ctx.output_names_ = &pass.outputs;
    ctx.outputs_ = &outputs;
    ctx.pool_ = pass_pool;
    pass.run(ctx);
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      if (!outputs[o].has_value())
        throw std::logic_error("pass '" + pass.name +
                               "' did not set declared output '" +
                               pass.outputs[o] + "'");
    }
    return outputs;
  }

  /// Body of a pool task: never lets an exception reach worker_loop.
  void run_task(std::size_t i) {
    std::vector<PipelineValue> outputs;
    std::exception_ptr err;
    try {
      // Overlapped passes run with a null pool: no nested parallel_for
      // from inside a pool task — cross-variant overlap replaces lanes.
      outputs = execute(i, nullptr);
    } catch (...) {
      err = std::current_exception();
    }
    {
      core::MutexLock lock(m_);
      --running_;
      if (err != nullptr) {
        if (!error_) error_ = err;
        aborting_ = true;
        nodes_[i].done = true;
        ++done_count_;
      } else if (aborting_) {
        nodes_[i].done = true;  // drained post-abort: discard the result
        ++done_count_;
      } else {
        complete_executed(i, std::move(outputs));
      }
      dispatch_locked();
      // Notify under the lock: the waiter in drive_parallel destroys this
      // ForestRun (and cv_) as soon as it observes running_ == 0, so an
      // unlocked notify could touch a dead condition variable.
      cv_.notify_all();
    }
  }

  void drive_parallel() {
    core::MutexLock lock(m_);
    dispatch_locked();
    // Aborting leaves queued-but-undispatched nodes in ready_; draining
    // the running tasks is all that is required before unwinding. The
    // predicate is an explicit loop (not a lambda) so the analysis sees the
    // guarded reads happen with the lock held.
    while (!(running_ == 0 && (aborting_ || ready_.empty()))) cv_.wait(lock);
    // A stall is reported through error_, not thrown here: run()'s rollback
    // (clear every pipeline's bound_) only fires on the error_ path, and a
    // stalled forest must not leave pipelines serving partial state.
    if (!error_ && done_count_ != nodes_.size()) error_ = stall_error();
  }

  void drive_inline() {
    for (;;) {
      std::size_t i;
      {
        core::MutexLock lock(m_);
        if (error_ || done_count_ == nodes_.size()) break;
        if (ready_.empty()) {
          error_ = stall_error();  // see drive_parallel: rollback needs error_
          break;
        }
        i = ready_.back();
        ready_.pop_back();
      }
      std::vector<PipelineValue> outputs;
      std::exception_ptr err;
      try {
        // Inline execution happens on the caller, so passes may keep the
        // pool for intra-pass parallel_for.
        outputs = execute(i, opts_.pool);
      } catch (...) {
        err = std::current_exception();
      }
      core::MutexLock lock(m_);
      if (err != nullptr) {
        if (!error_) error_ = err;
      } else {
        complete_executed(i, std::move(outputs));
      }
    }
  }

  std::exception_ptr stall_error() const NBV6_REQUIRES(m_) {
    return std::make_exception_ptr(
        std::logic_error("ForestScheduler stalled: " +
                         std::to_string(nodes_.size() - done_count_) +
                         " passes never became ready"));
  }

  struct InFlight {
    std::string pass;
    std::size_t output_count = 0;
    std::vector<std::size_t> waiters;
  };

  const std::vector<Pipeline*>& pipes_;
  PassCache& cache_;
  const ForestScheduler::Options& opts_;
  const int workers_;
  const bool parallel_;

  /// Structurally guarded by m_ but deliberately NOT annotated: execute()
  /// reads nodes_[i].inputs and the pass definition lock-free by protocol —
  /// both are pinned under the lock in on_ready() and immutable until the
  /// task's completion handler retakes the lock. A GUARDED_BY here would
  /// force execute() under the mutex and serialize every pass body.
  std::vector<ForestNode> nodes_;

  core::Mutex m_;
  core::CondVar cv_;
  std::vector<TransientInstance> instances_ NBV6_GUARDED_BY(m_);
  /// (pipeline, resource name) -> transient instance index.
  std::map<std::pair<const Pipeline*, std::string>, std::size_t> instance_of_
      NBV6_GUARDED_BY(m_);
  /// LIFO: newly-unblocked passes run before older frontier entries, so a
  /// variant's chain drains depth-first and its transients release before
  /// the scheduler fans out to the next variant — this is what keeps peak
  /// residency near the worker count instead of the variant count.
  std::deque<std::size_t> ready_ NBV6_GUARDED_BY(m_);
  std::unordered_map<std::uint64_t, InFlight> inflight_ NBV6_GUARDED_BY(m_);
  std::size_t running_ NBV6_GUARDED_BY(m_) = 0;
  std::size_t done_count_ NBV6_GUARDED_BY(m_) = 0;
  std::size_t resident_ NBV6_GUARDED_BY(m_) = 0;
  bool aborting_ NBV6_GUARDED_BY(m_) = false;
  std::exception_ptr error_ NBV6_GUARDED_BY(m_);
  ForestScheduler::Stats stats_ NBV6_GUARDED_BY(m_);
};

}  // namespace detail

ForestScheduler::Stats ForestScheduler::run(
    const std::vector<Pipeline*>& pipelines, PassCache& cache,
    const Options& opts) {
  if (pipelines.empty()) return {};
  detail::ForestRun run(pipelines, cache, opts);
  return run.run();
}

}  // namespace nbv6::engine
