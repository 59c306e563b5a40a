// ARES reconfiguration-service messages (Algorithms 4 and 6): reading and
// writing the nextC pointers that form the distributed global configuration
// sequence GL. Every atomic object has its own sequence: requests derive
// sim::RpcRequest, so they carry (config, object) and servers keep one
// nextC pointer per (configuration, object) pair — a hot object can be
// moved to a wider code without touching any other object's lineage.
#pragma once

#include "common/types.hpp"
#include "sim/message.hpp"

namespace ares::reconfig {

/// One element of a configuration sequence: ⟨cfg, status⟩ with status
/// P (pending) or F (finalized). Defined in common/types.hpp since every
/// sim::RpcReply piggybacks one; re-exported here for the reconfiguration
/// module's historical spelling.
using ares::CseqEntry;

/// READ-CONFIG: server replies with its nextC variable.
class ReadConfigReq final : public sim::RpcRequest {
 public:
  [[nodiscard]] std::string_view type_name() const override {
    return "ares.read_config";
  }
};

class ReadConfigReply final : public sim::RpcReply {
 public:
  CseqEntry next;  // next.cfg == kNoConfig encodes nextC = ⊥
  [[nodiscard]] std::string_view type_name() const override {
    return "ares.read_config_reply";
  }
};

/// WRITE-CONFIG ⟨cfg, status⟩: server updates nextC per Alg. 6 and acks.
class WriteConfigReq final : public sim::RpcRequest {
 public:
  CseqEntry next;
  [[nodiscard]] std::string_view type_name() const override {
    return "ares.write_config";
  }
};

class WriteConfigAck final : public sim::RpcReply {
 public:
  [[nodiscard]] std::string_view type_name() const override {
    return "ares.write_config_ack";
  }
};

}  // namespace ares::reconfig
