// The storage codec abstraction used by the atomic-memory algorithms, with
// the paper's two instantiations:
//   * ReedSolomonCodec — the [n, k] MDS code of TREAS (fragment = 1/k of v)
//   * ReplicationCodec — the degenerate [n, 1] code of ABD/LDR (fragment = v)
#pragma once

#include "common/types.hpp"
#include "codec/matrix.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace ares::codec {

/// One coded element Φ_i(v): the fragment stored by server i.
struct Fragment {
  std::uint32_t index = 0;          // i in [0, n)
  std::shared_ptr<const Value> data; // fragment bytes

  [[nodiscard]] std::size_t size() const { return data ? data->size() : 0; }
};

class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::size_t n() const = 0;
  [[nodiscard]] virtual std::size_t k() const = 0;

  /// Encode v into n fragments (fragment i is destined for server i).
  [[nodiscard]] virtual std::vector<Fragment> encode(const Value& v) const = 0;

  /// Encode only the fragment for a single index (avoids materializing all
  /// n fragments when servers re-encode during ARES-TREAS state transfer).
  [[nodiscard]] virtual Fragment encode_one(const Value& v,
                                            std::uint32_t index) const = 0;

  /// Decode from any >= k distinct fragments; nullopt if not decodable
  /// (fewer than k distinct indices).
  [[nodiscard]] virtual std::optional<Value> decode(
      const std::vector<Fragment>& fragments) const = 0;

  /// True if the fragment set has >= k distinct valid indices.
  [[nodiscard]] bool is_decodable(const std::vector<Fragment>& fragments) const;
};

/// Systematic Reed-Solomon [n, k] MDS code over GF(2^8). The value is split
/// into k stripes (zero-padded to a multiple of k); fragment i is the i-th
/// codeword row; any k fragments reconstruct v. Original length is carried
/// out-of-band as metadata (first 8 bytes of each fragment header here, to
/// keep decode self-contained).
class ReedSolomonCodec final : public Codec {
 public:
  ReedSolomonCodec(std::size_t n, std::size_t k);

  [[nodiscard]] std::size_t n() const override { return n_; }
  [[nodiscard]] std::size_t k() const override { return k_; }

  [[nodiscard]] std::vector<Fragment> encode(const Value& v) const override;
  [[nodiscard]] Fragment encode_one(const Value& v,
                                    std::uint32_t index) const override;
  [[nodiscard]] std::optional<Value> decode(
      const std::vector<Fragment>& fragments) const override;

 private:
  std::size_t n_;
  std::size_t k_;
  Matrix generator_;  // n x k systematic MDS matrix
};

/// Replication as an [n, 1] code: every "fragment" is the full value.
class ReplicationCodec final : public Codec {
 public:
  explicit ReplicationCodec(std::size_t n) : n_(n) {}

  [[nodiscard]] std::size_t n() const override { return n_; }
  [[nodiscard]] std::size_t k() const override { return 1; }

  [[nodiscard]] std::vector<Fragment> encode(const Value& v) const override;
  [[nodiscard]] Fragment encode_one(const Value& v,
                                    std::uint32_t index) const override;
  [[nodiscard]] std::optional<Value> decode(
      const std::vector<Fragment>& fragments) const override;

 private:
  std::size_t n_;
};

/// Factory helper: replication if k == 1, Reed-Solomon otherwise.
[[nodiscard]] std::shared_ptr<const Codec> make_codec(std::size_t n,
                                                      std::size_t k);

}  // namespace ares::codec
