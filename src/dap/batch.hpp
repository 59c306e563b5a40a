// The member-set quorum rounds of the generic read/write template
// (Algorithm 7; templates A1/A2 of Algorithms 10–11): one get-data (or
// get-tag) round and one put-data round over a set of members, each a Dap
// bound to one object of one configuration. A lone member runs its Dap's
// scalar primitive; two or more whole-replica (ABD) members share one
// QueryBatchReq / PutBatchReq frame, so B objects in a configuration cost
// one quorum round instead of B. Both shapes apply the same semifast
// confirm rule and feed the members' confirmed-tag caches. AresClient's op
// engine and StaticStore's batches both run on these two calls; waves,
// hint absorption and post-put config checks stay in the callers.
#pragma once

#include "dap/config.hpp"
#include "dap/dap.hpp"
#include "sim/coro.hpp"
#include "sim/process.hpp"

#include <vector>

namespace ares::dap {

/// True when `spec`'s protocol serves the shared batch frames (servers
/// store full values per object). Coded (TREAS) and role-split (LDR)
/// configurations decline; their members run one at a time.
[[nodiscard]] inline bool batch_capable(const ConfigSpec& spec) {
  return spec.protocol == Protocol::kAbd;
}

/// One member's outcome of a query_round or put_round.
struct MemberResult {
  /// Query rounds: the max-tag pair across the quorum (the tag only under
  /// get-tag), and whether it is semifast-confirmed — known to rest at a
  /// quorum, so A1's write-back may be elided (always false with the
  /// configuration's `semifast` flag off).
  TagValue tv;
  bool confirmed = false;
  /// The full-quorum lease grant the round backs: a read lease on a query,
  /// a write-ack lease on a put (0 = none).
  SimTime lease_expiry = 0;
  /// The member's nextC as a shared frame reported it. ⊥ for a lone member:
  /// its scalar reply's hint already reached the owner's
  /// Process::note_config_hint on delivery.
  CseqEntry next_c;
};

/// One member of a put round: its Dap and the pair it propagates.
struct PutMember {
  Dap* dap = nullptr;
  TagValue tv;
};

/// One get-data round (get-tag when `tags_only`) on `spec`'s servers for
/// every member. Results align with `members`. `want_leases` asks for
/// read-lease grants (callers that can install them only; see
/// Dap::get_data_confirmed). `spec` (a ConfigRegistry entry or the owner's
/// own spec) and the members' Daps must outlive the round. Two or more
/// members need a batch_capable configuration.
[[nodiscard]] sim::Future<std::vector<MemberResult>> query_round(
    sim::Process& owner, const ConfigSpec& spec, std::vector<Dap*> members,
    bool tags_only, bool want_leases);

/// One put-data round on `spec`'s servers for every member. Afterwards every
/// member's pair rests at a quorum: its Dap notes the tag confirmed and,
/// when `spec.semifast`, the servers are told so. `want_leases` asks for
/// write-ack lease grants riding the acks (callers that can install them
/// only). Same lifetime rules as query_round.
[[nodiscard]] sim::Future<std::vector<MemberResult>> put_round(
    sim::Process& owner, const ConfigSpec& spec,
    std::vector<PutMember> members, bool want_leases);

}  // namespace ares::dap
