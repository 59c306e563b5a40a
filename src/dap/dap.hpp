// The three data-access primitives of Definition 1, as an abstract
// client-side interface. Implementations: AbdDap, TreasDap, LdrDap.
//
// Consistency contract (Definition 2), which the generic templates A1/A2
// rely on for atomicity:
//   C1: put-data(⟨τ,v⟩) completed before get-tag/get-data π ⟹ τ_π ≥ τ
//   C2: get-data returns a pair written by some non-later put-data (or
//       (t0, v0))
//   C3 (A2 only): get-data results are monotone across sequential calls
#pragma once

#include "common/types.hpp"
#include "sim/coro.hpp"

#include <algorithm>
#include <limits>

namespace ares::dap {

/// get-data plus the semifast confirmation verdict: `confirmed` means the
/// returned tag is known to be propagated to a full quorum already, so the
/// reader's write-back phase (A1's put-data) is redundant and may be
/// elided without violating C1 for later operations.
struct GetDataResult {
  TagValue tv;
  bool confirmed = false;
  /// Read-lease acquisition verdict of the round: nonzero when a full
  /// quorum of the replies granted a lease to the caller, holding the
  /// minimum grant expiry (the window the caller may serve the returned
  /// pair locally, after subtracting its clock-skew bound ε). 0 when the
  /// configuration grants no leases or fewer than a quorum granted.
  SimTime lease_expiry = 0;
};

/// put-data plus the write-ack lease verdict: nonzero when a full quorum of
/// the put acks granted the writer a lease on its own just-written pair
/// (the server's promise rides the ack — no extra round), holding the
/// minimum grant expiry. 0 when the configuration grants no leases, fewer
/// than a quorum granted, or the caller did not ask.
struct PutDataResult {
  SimTime lease_expiry = 0;
};

/// One object's replies to one quorum round, folded — shared by the scalar
/// (AbdDap) and batched (dap/batch) rounds: the max-tag pair (a reply with a
/// value wins a tag tie), the max confirmed tag, and the lease grants. Only
/// a full quorum of grants in one round backs a lease — every later put ack
/// quorum then intersects the grant set, so at least one enforcing server
/// gates any newer write — and its window is the minimum grant expiry.
struct QuorumFold {
  TagValue best{kInitialTag, nullptr};
  Tag confirmed = kInitialTag;
  std::size_t grants = 0;
  SimTime min_expiry = std::numeric_limits<SimTime>::max();

  void add(const Tag& tag, const ValuePtr& value, const Tag& server_confirmed,
           SimTime lease_expiry) {
    if (tag > best.tag || (tag == best.tag && !best.value && value)) {
      best = TagValue{tag, value};
    }
    confirmed = std::max(confirmed, server_confirmed);
    add_grant(lease_expiry);
  }
  void add_grant(SimTime lease_expiry) {
    if (lease_expiry == 0) return;
    ++grants;
    min_expiry = std::min(min_expiry, lease_expiry);
  }
  /// The lease the round backs (0 = none).
  [[nodiscard]] SimTime lease(std::size_t quorum) const {
    return grants >= quorum ? min_expiry : 0;
  }
};

class Dap {
 public:
  /// Every DAP instance binds to exactly one atomic object: all of its
  /// primitives address that object's state on the servers.
  explicit Dap(ObjectId object = kDefaultObject) : object_(object) {}
  virtual ~Dap() = default;

  /// The atomic object this instance operates on.
  [[nodiscard]] ObjectId object() const { return object_; }

  /// D1: c.get-tag()
  [[nodiscard]] virtual sim::Future<Tag> get_tag() = 0;

  /// D2 + semifast metadata: c.get-data() plus whether the returned tag is
  /// quorum-confirmed (always false when the configuration's `semifast`
  /// flag is off). `want_lease` asks the servers for read-lease grants
  /// alongside the data — set only by callers that may actually install
  /// the lease (the ARES read paths in a stable steady state): a recorded
  /// grant is an *enforced promise* that stalls later writers, so callers
  /// that never install — reconfiguration transfer reads, get-tag phases,
  /// the write templates, lease-blind readers — must not ask. (A requested
  /// grant whose acquisition then fails — sub-quorum grants, a hint
  /// breaking the steady state mid-round — does linger until its window
  /// expires; a grant-release handshake that returns those early is a
  /// ROADMAP follow-up.)
  [[nodiscard]] virtual sim::Future<GetDataResult> get_data_confirmed(
      bool want_lease = false) = 0;

  /// D2: c.get-data() (wrapper over get_data_confirmed for callers that do
  /// not care about the confirmation verdict).
  [[nodiscard]] sim::Future<TagValue> get_data();

  /// Fenced get-data, used by reconfiguration state transfer: counts only
  /// replies whose server has installed (and echoes) the nextC-bearing
  /// cseq entry for this (configuration, object), so the quorum observed
  /// is entirely drawn from servers that already know the configuration is
  /// superseded. Combined with quorum intersection this guarantees the
  /// transfer sees every put-data that completed *hint-free* in this
  /// configuration — the property that makes the writer's post-put config
  /// check elidable (see AresClient::run_group). The caller passes the
  /// decided successor entry; the query piggybacks it and each server
  /// installs it before replying (Alg. 6 adopt rule), so the fence is
  /// self-establishing. Liveness therefore needs only *some* quorum of
  /// live servers — not the specific quorum that acked put-config, which a
  /// crash after a partition can leave below quorum strength (a schedule
  /// the fuzzer found: put-config reaches {a,b} while c is partitioned, b
  /// crashes, c heals having never seen the pointer). Default: plain
  /// get-data — correct for protocols whose tails never elide (LDR, whose
  /// directory majorities need not intersect server quorums; see
  /// covers_config_hints), overridden by ABD and TREAS.
  [[nodiscard]] virtual sim::Future<TagValue> get_data_fenced(
      CseqEntry successor);

  /// D3: c.put-data(⟨τ,v⟩)
  [[nodiscard]] virtual sim::Future<void> put_data(TagValue tv) = 0;

  /// put-data that additionally asks the servers for a write-ack lease on
  /// the written pair when `want_lease` (piggybacked on the acks — the
  /// writer immediately re-leases its own value, so hot read-modify-write
  /// objects never leave the local read path). Callers must only ask when
  /// they can install the lease (steady single-configuration state).
  /// Default: plain put-data, never granting (protocols without lease
  /// support); ABD overrides.
  [[nodiscard]] virtual sim::Future<PutDataResult> put_data_leased(
      TagValue tv, bool want_lease);

  /// Extension used by ARES-TREAS reconfiguration (Section 5): the tag that
  /// get-data would return, without moving the value through the client.
  /// Default: run get-data and discard the value (correct but not
  /// bandwidth-optimal; TREAS overrides with a metadata-only phase).
  [[nodiscard]] virtual sim::Future<Tag> get_dec_tag();

  /// Fenced get-dec-tag (same fence and successor piggyback as
  /// get_data_fenced, metadata only) for
  /// the direct server-to-server transfer path. Default: get_dec_tag;
  /// TREAS overrides with a fenced digest phase.
  [[nodiscard]] virtual sim::Future<Tag> get_dec_tag_fenced(
      CseqEntry successor);

  /// Highest tag this client knows is quorum-propagated for its
  /// (configuration, object) — t0 is trivially confirmed (every server
  /// starts from ⟨t0, v0⟩).
  [[nodiscard]] Tag confirmed_tag() const { return confirmed_; }

  /// Record that put-data(τ) completed at a quorum (or that a server
  /// reported τ confirmed). Public so the batched multi-object paths,
  /// which run their quorum rounds outside the Dap instances, can feed
  /// the same confirmation cache the scalar primitives use.
  void note_confirmed(Tag t) { confirmed_ = std::max(confirmed_, t); }

 private:
  ObjectId object_;
  Tag confirmed_ = kInitialTag;
};

}  // namespace ares::dap
