// The ARES client process: sequence traversal (Algorithm 4), reader/writer
// protocols (Algorithm 7) and the four-phase reconfig operation
// (Algorithm 5). One class serves readers, writers and reconfigurers —
// which operations a given process invokes determines its role.
//
// Every operation is keyed by ObjectId: one client serves any number of
// independent atomic objects, each with its own local configuration
// sequence cseq, its own DAP bindings and its own consensus proposers —
// so a hot object can be reconfigured (e.g. moved to a wider code) without
// touching any other object's lineage. The single-argument overloads
// operate on kDefaultObject for one-object deployments.
//
// The update-config phase is virtual: the base class implements the
// client-conduit transfer of Algorithm 5; arestreas::DirectAresClient
// overrides it with the direct server-to-server transfer of Section 5.
#pragma once

#include "ares/messages.hpp"
#include "checker/history.hpp"
#include "consensus/paxos.hpp"
#include "dap/config.hpp"
#include "dap/dap.hpp"
#include "dap/messages.hpp"
#include "sim/process.hpp"

#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace ares::reconfig {

class AresClient : public sim::Process {
 public:
  /// `registry` must contain the initial configuration `c0`; every object's
  /// local cseq starts as ⟨c0, F⟩ unless rebound with bind_object().
  /// `recorder` (optional) logs the per-object operation history for
  /// atomicity checking.
  AresClient(sim::Simulator& sim, sim::Transport& net, ProcessId id,
             dap::ConfigRegistry& registry, ConfigId c0,
             checker::HistoryRecorder* recorder = nullptr);
  ~AresClient() override;

  /// Bind `obj` to initial configuration `c0` (must precede any operation
  /// on `obj`; objects not explicitly bound start at the constructor's c0).
  /// Distinct objects may start from distinct configurations — this is how
  /// a multi-object store places different keys on different server sets.
  void bind_object(ObjectId obj, ConfigId c0);

  /// Algorithm 7 write on `obj`. Completes with the tag the value was
  /// written under.
  [[nodiscard]] sim::Future<Tag> write(ObjectId obj, ValuePtr value);
  [[nodiscard]] sim::Future<Tag> write(ValuePtr value) {
    return write(kDefaultObject, std::move(value));
  }

  /// Algorithm 7 read on `obj`. Completes with the tag-value pair returned.
  [[nodiscard]] sim::Future<TagValue> read(ObjectId obj);
  [[nodiscard]] sim::Future<TagValue> read() { return read(kDefaultObject); }

  /// Batched Algorithm-7 reads and writes: the engine of read() and
  /// write() over many members. Members whose whole cached sequence is one
  /// batch-capable configuration (see dap::batch_capable) share its quorum
  /// rounds — one query and at most one put round per group. Every other
  /// member (mid-reconfig, non-batchable protocol, view moved by a hint)
  /// runs alone, exactly as a scalar op; a repeated object runs again in a
  /// later wave. `values` parallels `objs`; the results — the pair each
  /// member read or wrote — align with `objs`.
  [[nodiscard]] sim::Future<std::vector<TagValue>> read_batch(
      std::vector<ObjectId> objs) {
    return run_members(std::move(objs), {});
  }
  [[nodiscard]] sim::Future<std::vector<TagValue>> write_batch(
      std::vector<ObjectId> objs, std::vector<ValuePtr> values) {
    assert(objs.size() == values.size());
    return run_members(std::move(objs), std::move(values));
  }

  /// Algorithm 5 reconfig(c) on `obj`: registers `new_spec` and attempts to
  /// append it to `obj`'s GL. Completes with the configuration id actually
  /// installed in that slot (new_spec.id if this client's proposal won
  /// consensus, the competing winner otherwise).
  [[nodiscard]] sim::Future<ConfigId> reconfig(ObjectId obj,
                                               dap::ConfigSpec new_spec);
  [[nodiscard]] sim::Future<ConfigId> reconfig(dap::ConfigSpec new_spec) {
    return reconfig(kDefaultObject, std::move(new_spec));
  }

  /// Const observer: this client's current local configuration sequence
  /// for `obj` (tests / metrics). The object must already be bound —
  /// explicitly via bind_object() or implicitly by a prior operation;
  /// throws std::out_of_range otherwise. Observing never mutates client
  /// state (the historical accessor lazily *bound* the object on a miss;
  /// callers that want that behavior call bind_object() first).
  [[nodiscard]] const std::vector<CseqEntry>& cseq(ObjectId obj) const;
  [[nodiscard]] const std::vector<CseqEntry>& cseq() const {
    return cseq(kDefaultObject);
  }

  /// Index of the last finalized entry (µ) and last entry (ν) of `obj`'s
  /// sequence. Const observers with the same bound-object requirement as
  /// cseq().
  [[nodiscard]] std::size_t mu(ObjectId obj = kDefaultObject) const;
  [[nodiscard]] std::size_t nu(ObjectId obj = kDefaultObject) const {
    return cseq(obj).size() - 1;
  }

  /// Runs the Alg. 4 sequence traversal once for `obj` (exposed for tests
  /// and for the latency benchmarks that measure T(read-config)).
  [[nodiscard]] sim::Future<void> read_config(ObjectId obj = kDefaultObject);

  /// Steady-state fast path (default on): skip the explicit read-config
  /// round while the locally cached cseq is known current — every DAP reply
  /// piggybacks the servers' nextC, and any reply revealing a successor
  /// configuration falls the operation back to the full Alg. 4 traversal —
  /// and elide the read write-back phase when the returned tag is already
  /// quorum-confirmed (semifast read). Off = the paper's exact round
  /// structure (benchmark baseline).
  void set_fast_path(bool on) { fast_path_ = on; }
  [[nodiscard]] bool fast_path() const { return fast_path_; }

  /// Config-lineage GC (off by default): when on, a reconfiguration this
  /// client completes — transfer done, finalize quorum acked — broadcasts
  /// RetireConfigReq for every superseded configuration in the object's
  /// chain, letting servers drop that lineage's state. Operations of any
  /// client that straggles into a retired configuration are bounced with a
  /// RetiredReply and re-sync through the Alg. 4 traversal (the tombstone
  /// keeps serving the configuration-service chain pointers).
  void set_config_gc(bool on) { config_gc_ = on; }
  [[nodiscard]] bool config_gc() const { return config_gc_; }

  // --- per-object read leases ----------------------------------------------
  //
  // When a quorum read comes back with a full quorum of lease grants (see
  // dap::GetDataResult::lease_expiry) the client caches ⟨value, tag,
  // expiry⟩ per object and serves subsequent reads entirely locally — zero
  // quorum rounds, zero messages — while the window is valid. The cache is
  // poisoned the instant anything disturbs the steady state: an own write,
  // a piggybacked hint or traversal revealing a successor configuration, a
  // reconfiguration (including Rebalancer-driven migrations), a server's
  // lease invalidation, or expiry (checked lazily and reaped by a timer
  // wakeup). Reconfiguration transfer reads (update_config) never consult
  // the cache — they always run quorum get-data — so state transfer never
  // trusts a lease minted under a superseded configuration.

  /// Clock-skew bound ε subtracted from every grant window before local
  /// use: a lease expiring at E is served only while local_clock < E − ε.
  /// Safe whenever the client's real skew stays within ±ε; the adversarial
  /// skew tests drive the skew past ε with the guard off to reproduce the
  /// stale-read violation the bound prevents.
  void set_lease_epsilon(SimDuration epsilon) { lease_epsilon_ = epsilon; }
  [[nodiscard]] SimDuration lease_epsilon() const { return lease_epsilon_; }

  /// Simulated clock drift of this client (local_clock = sim time + skew;
  /// negative = a slow clock). Only lease validity consults the local
  /// clock, so the skew models exactly the hazard leases introduce.
  void set_clock_skew(std::int64_t skew) { clock_skew_ = skew; }
  [[nodiscard]] std::int64_t clock_skew() const { return clock_skew_; }

  /// True while this client holds a currently-valid lease on `obj`.
  [[nodiscard]] bool holds_lease(ObjectId obj) const;

  /// In-flight guard count currently held on `obj` — the cseq pins that
  /// block trim_cseq while operations are suspended. Diagnostics/tests: a
  /// timed-out (aborted) operation must have unwound back to 0, proving
  /// the abort released its InflightGuards. 0 for untouched objects.
  [[nodiscard]] std::size_t inflight_marks(ObjectId obj) const {
    auto it = objects_.find(obj);
    return it == objects_.end() ? 0 : it->second.inflight;
  }

  /// Reads served entirely from the lease cache (diagnostics/tests).
  [[nodiscard]] std::uint64_t lease_local_reads() const {
    return lease_local_reads_;
  }

  /// Object-data bytes this client pulled through itself during
  /// update-config phases, across all objects (the reconfiguration-
  /// bottleneck metric of Section 5; stays 0 for the direct-transfer
  /// client).
  [[nodiscard]] std::uint64_t update_config_bytes_through_client() const {
    return update_config_bytes_;
  }

 protected:
  void handle(const sim::Message& msg) override;

  /// Applies piggybacked nextC hints to `obj`'s local cseq: appending a
  /// newly revealed successor marks the sequence unsynced (there may be
  /// further links only a full traversal finds).
  void note_config_hint(ConfigId cfg, ObjectId obj,
                        const CseqEntry& next) override;

  /// One cached read lease: the pair served locally and the window end
  /// (grantor-clock time; validity subtracts the ε skew bound).
  struct LeaseEntry {
    ConfigId cfg = kNoConfig;
    Tag tag;
    ValuePtr value;
    SimTime expiry = 0;
  };

  /// Per-object client state: the local configuration sequence plus cached
  /// protocol endpoints, all independent between objects.
  struct ObjectState {
    std::vector<CseqEntry> cseq;
    /// True once a full read-config traversal completed and no piggybacked
    /// hint has revealed an unexplored successor since — the fast path may
    /// then trust cseq without the explicit round.
    bool synced = false;
    std::map<ConfigId, std::shared_ptr<dap::Dap>> daps;
    std::map<ConfigId, std::unique_ptr<consensus::PaxosProposer>> proposers;
    /// The lease cache entry (nullopt = none) and, per configuration, the
    /// install fence: the highest tag a lease invalidation announced.
    /// Grants still in flight from before that invalidation must never be
    /// installed afterwards — the writer may already have completed — so
    /// installs require lease.tag ≥ fence. kMaxTag (a reconfiguration's
    /// settle-all) permanently fences the superseded configuration.
    std::optional<LeaseEntry> lease;
    std::map<ConfigId, Tag> lease_fence;
    /// Operations currently holding indices into cseq across suspensions.
    /// trim_cseq only rebases the sequence while this is zero.
    std::size_t inflight = 0;
  };

  /// Find `obj`'s state, lazily binding it to the constructor's c0.
  ObjectState& obj_state(ObjectId obj);

  /// The update-config phase of reconfig (overridable; see class comment).
  [[nodiscard]] virtual sim::Future<void> update_config(ObjectId obj);

  /// get-next-config(c): one quorum read of `obj`'s nextC on c's servers.
  /// Returns the F-status reply if any, else a P-status reply, else
  /// nullopt (⊥).
  [[nodiscard]] sim::Future<std::optional<CseqEntry>> read_next_config(
      ObjectId obj, ConfigId c);

  /// put-config(c, e): write `obj`'s nextC = e to a quorum of c's servers.
  [[nodiscard]] sim::Future<void> put_config(ObjectId obj, ConfigId c,
                                             CseqEntry e);

  /// The DAP client bound to (obj, cfg) (cached).
  [[nodiscard]] const std::shared_ptr<dap::Dap>& dap_for(ObjectId obj,
                                                         ConfigId cfg);

  /// Record entry `e` at index `idx` of `obj`'s local cseq (append or merge
  /// status; configuration ids at one index never differ — Lemma 47).
  void set_entry(ObjectId obj, std::size_t idx, CseqEntry e);

  dap::ConfigRegistry& registry_;
  checker::HistoryRecorder* recorder_;
  std::uint64_t update_config_bytes_ = 0;

 private:
  [[nodiscard]] sim::Future<consensus::PaxosValue> propose(ObjectId obj,
                                                           ConfigId on_cfg,
                                                           ConfigId value);

  /// Fire-and-forget RetireConfigReq for cseq[0..upto) of `obj` to every
  /// server of those configurations, naming `successor` as the finalized
  /// authorization token.
  void broadcast_retire(ObjectId obj, std::size_t upto, CseqEntry successor);

  /// Rebase `obj`'s local cseq to start at µ, dropping retired/superseded
  /// prefix entries and their cached DAP endpoints, proposers and fences.
  /// No-op while any operation is in flight on the object (in-flight
  /// coroutines hold indices into the sequence).
  void trim_cseq(ObjectId obj);

  /// Re-sync after a ConfigRetired bounce: mark unsynced and run the full
  /// Alg. 4 traversal (the tombstones keep the chain walkable, and the
  /// retirer's finalize makes µ jump past every retired entry).
  [[nodiscard]] sim::Future<void> resync_after_retire(ObjectId obj);

  /// Finish a write whose tag is already recorded history: propagate the
  /// SAME pair into the (re-synced) tail until the sequence is stable,
  /// riding out further retirements. Never picks a new tag — the checker
  /// indexes writes by their single noted tag.
  [[nodiscard]] sim::Future<void> complete_write(ObjectId obj, TagValue tv);

  /// read_config, unless the fast path may trust the cached cseq for `obj`.
  [[nodiscard]] sim::Future<void> ensure_config(ObjectId obj);

  /// This client's lease-validation clock: sim time + skew, clamped at 0.
  [[nodiscard]] SimTime lease_now() const;

  /// True when `st`'s lease may serve a read right now: fast path on, the
  /// cached sequence still the single configuration the lease was minted
  /// under, and the ε-guarded window not yet over.
  [[nodiscard]] bool lease_usable(ObjectId obj, const ObjectState& st) const;

  /// Serve a read of `obj` from the lease cache if possible. Returns true
  /// and fills `out` on a local hit (counted in lease_local_reads_).
  [[nodiscard]] bool try_lease_read(ObjectId obj, TagValue& out);

  /// Install a lease on `obj` (refused below the configuration's install
  /// fence) and schedule the expiry reaper wakeup.
  void install_lease(ObjectId obj, ConfigId cfg, TagValue tv, SimTime expiry);

  /// Schedule the timer wakeup that drops `obj`'s lease entry once the
  /// client's own (skewed, ε-guarded) clock reaches the window end.
  void schedule_lease_reaper(ObjectId obj, SimTime expiry);

  /// Drop `obj`'s cached lease (a write, hint, reconfiguration or server
  /// invalidation disturbed the steady state).
  void poison_lease(ObjectId obj);

  // --- the op engine (Algorithm 7) ------------------------------------------
  //
  // Waves: every unfinished member resolves its configuration; members
  // stable in one batch-capable configuration form a group, every other
  // member a group of one; each group runs one attempt of its phase. A
  // member whose view moved (a hint, a post-put check, a ConfigRetired
  // re-sync) goes to the next wave.

  /// One Alg.-7 operation inside the engine.
  struct Member {
    enum class Step { kQuery, kPut, kDone };
    ObjectId obj = kNoObject;
    std::uint64_t rec = 0;  // recorder handle (0 = none)
    Step step = Step::kQuery;
    /// Read: the pair read (written back in kPut). Write: the value, then
    /// its tag — recorded history from the moment it is chosen.
    TagValue tv;
    /// The full-quorum lease grant on `tv` (0 = none): a read's from its
    /// tail query, a write's from its put acks.
    SimTime lease = 0;
    ConfigId lease_cfg = kNoConfig;
    /// A post-put read_config found a successor: the next wave re-puts
    /// into it without another traversal.
    bool traversed = false;
  };

  /// The engine: reads of `objs` when `values` is empty, else writes.
  /// Records every op; returns each member's pair, aligned with `objs`.
  [[nodiscard]] sim::Future<std::vector<TagValue>> run_members(
      std::vector<ObjectId> objs, std::vector<ValuePtr> values);

  /// One attempt of the phase each member of `group` is in. A
  /// ConfigRetired bounce re-syncs the members: reads and untagged writes
  /// restart next wave, tagged writes finish through complete_write.
  [[nodiscard]] sim::Future<void> run_group(std::vector<Member>& ms,
                                            std::vector<std::size_t> group,
                                            bool writes);

  /// Install the member's lease if the steady state it was granted in
  /// still holds, and mark the member done.
  void finish(Member& m);

  /// True when piggybacked hints on `obj`'s current tail configuration are
  /// guaranteed to reveal any installed successor (the tail's DAP phase
  /// quorums intersect every reconfiguration-service quorum).
  [[nodiscard]] bool tail_covers_hints(ObjectId obj);

  ConfigId default_c0_;
  bool fast_path_ = true;
  bool config_gc_ = false;
  SimDuration lease_epsilon_ = 0;
  std::int64_t clock_skew_ = 0;
  std::uint64_t lease_local_reads_ = 0;
  /// Liveness token for the lease-expiry reaper wakeups (the scheduled
  /// lambdas hold a weak_ptr so a wakeup outliving this client is a no-op).
  std::shared_ptr<char> lease_timer_token_ = std::make_shared<char>();
  std::map<ObjectId, ObjectState> objects_;
};

}  // namespace ares::reconfig
