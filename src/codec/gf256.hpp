// Arithmetic in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11B),
// via log/exp tables built at static-init time, plus the bulk row kernel the
// Reed-Solomon [n, k] MDS codes of TREAS (n <= 255) run on: a full 256 x 256
// product table, so coding a byte is one lookup and one XOR.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ares::codec {

class GF256 {
 public:
  using Elem = std::uint8_t;

  [[nodiscard]] static Elem add(Elem a, Elem b) { return a ^ b; }

  [[nodiscard]] static Elem mul(Elem a, Elem b) {
    if (a == 0 || b == 0) return 0;
    return tables().exp[tables().log[a] + tables().log[b]];
  }

  /// Multiplicative inverse. Precondition: a != 0.
  [[nodiscard]] static Elem inv(Elem a);

  /// a / b. Precondition: b != 0.
  [[nodiscard]] static Elem div(Elem a, Elem b);

  /// a^e (e >= 0).
  [[nodiscard]] static Elem pow(Elem a, unsigned e);

  /// dst[j] ^= a * src[j] for j < len: a == 0 is a no-op, a == 1 a plain
  /// XOR, anything else one product-table row. src and dst may not overlap.
  static void mul_add_row(Elem a, const Elem* src, Elem* dst, std::size_t len);

 private:
  struct Tables {
    // exp has 510 entries so mul can skip the mod-255 reduction.
    std::array<Elem, 510> exp{};
    std::array<std::uint16_t, 256> log{};
    std::array<std::array<Elem, 256>, 256> product{};  // product[a][b] = a*b
  };
  static const Tables& tables();
};

}  // namespace ares::codec
