// ARES-TREAS (Section 5): a reconfiguration client whose update-config
// phase moves object data directly between server sets. Instead of pulling
// ⟨τ, v⟩ through the client (Algorithm 5), it
//   1. learns only the max decodable *tag* per configuration (metadata),
//   2. asks the holding configuration's servers — via the all-or-none
//      md-primitive — to forward their coded elements to the new servers
//      (Algorithm 8 / forward-code-element),
//   3. waits for ⌈(n'+k')/2⌉ ACKs from new-configuration servers, which
//      decode, re-encode under the new [n', k'] code and store (Algorithm 9).
#pragma once

#include "ares/client.hpp"
#include "treas/messages.hpp"

#include <map>
#include <unordered_set>

namespace ares::arestreas {

class DirectAresClient final : public reconfig::AresClient {
 public:
  using reconfig::AresClient::AresClient;

 protected:
  [[nodiscard]] sim::Future<void> update_config(ObjectId obj) override;

  void handle(const sim::Message& msg) override;

 private:
  struct PendingTransfer {
    std::unordered_set<ProcessId> ackers;
    std::size_t needed = 0;
    sim::Promise<bool> done;
    bool fulfilled = false;
  };

  /// forward-code-element(τ, C, C') for `obj`: md-primitive to C's servers,
  /// then wait for ⌈(n'+k')/2⌉ acks from C''s servers. Throws
  /// ConfigRetired when a source server bounces the request.
  [[nodiscard]] sim::Future<void> forward_code_element(ObjectId obj, Tag tag,
                                                       ConfigId src,
                                                       ConfigId dst);

  /// Fail a still-pending transfer with `err` (no-op once fulfilled).
  void fail_transfer(std::uint64_t tid, std::exception_ptr err);

  std::uint64_t next_transfer_id_ = 1;
  std::map<std::uint64_t, PendingTransfer> transfers_;
};

}  // namespace ares::arestreas
