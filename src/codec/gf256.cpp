#include "codec/gf256.hpp"

#include <cassert>
#include <cstring>

namespace ares::codec {

const GF256::Tables& GF256::tables() {
  static const Tables t = [] {
    Tables tb;
    // Generator 0x03 is primitive for polynomial 0x11B.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      tb.exp[i] = static_cast<Elem>(x);
      tb.exp[i + 255] = static_cast<Elem>(x);
      tb.log[x] = static_cast<std::uint16_t>(i);
      // x *= 3 in GF(2^8): x ^ (x << 1) with reduction.
      unsigned next = x ^ (x << 1);
      if (next & 0x100) next ^= 0x11B;
      x = next & 0xFF;
    }
    tb.log[0] = 0;  // never consulted: mul/div guard zero operands
    for (unsigned a = 1; a < 256; ++a) {
      for (unsigned b = 1; b < 256; ++b) {
        tb.product[a][b] = tb.exp[tb.log[a] + tb.log[b]];
      }
    }
    return tb;
  }();
  return t;
}

GF256::Elem GF256::inv(Elem a) {
  assert(a != 0 && "division by zero in GF(256)");
  return tables().exp[255 - tables().log[a]];
}

GF256::Elem GF256::div(Elem a, Elem b) {
  assert(b != 0 && "division by zero in GF(256)");
  if (a == 0) return 0;
  return tables().exp[tables().log[a] + 255 - tables().log[b]];
}

GF256::Elem GF256::pow(Elem a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const unsigned idx = (static_cast<unsigned>(tables().log[a]) * e) % 255;
  return tables().exp[idx];
}

void GF256::mul_add_row(Elem a, const Elem* src, Elem* dst, std::size_t len) {
  if (a == 0) return;
  const auto& row = tables().product[a];  // row[x] = a * x (x itself if a = 1)
  std::size_t j = 0;
  if (a == 1) {
    for (; j + 8 <= len; j += 8) {  // a word at a time
      std::uint64_t s = 0, d = 0;
      std::memcpy(&s, src + j, 8);
      std::memcpy(&d, dst + j, 8);
      d ^= s;
      std::memcpy(dst + j, &d, 8);
    }
  } else {
    for (; j + 4 <= len; j += 4) {
      dst[j] ^= row[src[j]];
      dst[j + 1] ^= row[src[j + 1]];
      dst[j + 2] ^= row[src[j + 2]];
      dst[j + 3] ^= row[src[j + 3]];
    }
  }
  for (; j < len; ++j) dst[j] ^= row[src[j]];
}

}  // namespace ares::codec
