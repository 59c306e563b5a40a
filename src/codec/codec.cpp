#include "codec/codec.hpp"

#include <algorithm>
#include <cassert>

namespace ares::codec {
namespace {

constexpr std::size_t kHeaderBytes = 8;  // original value length, LE u64

void put_len(Value& frag, std::uint64_t len) {
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    frag[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
}

std::uint64_t get_len(const Value& frag) {
  std::uint64_t len = 0;
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    len |= static_cast<std::uint64_t>(frag[i]) << (8 * i);
  }
  return len;
}

/// Stripe c of a value of length len is v[c*s, (c+1)*s) with s = ceil(len/k),
/// zero-padded to s bytes. Padding adds nothing to a GF(2^8) sum, so only
/// the first stripe_bytes(len, s, c) bytes of a stripe are read or written.
std::size_t stripe_bytes(std::uint64_t len, std::size_t s, std::size_t c) {
  const std::uint64_t off = static_cast<std::uint64_t>(c) * s;
  return off >= len ? 0 : static_cast<std::size_t>(std::min<std::uint64_t>(
                              s, len - off));
}

/// Picks k fragments with distinct indices, lowest index first, so that
/// systematic ones (index < k) are preferred; nullopt if impossible.
std::optional<std::vector<const Fragment*>> pick_distinct(
    const std::vector<Fragment>& fragments, std::size_t k, std::size_t n) {
  std::vector<const Fragment*> by_index(n, nullptr);
  for (const auto& f : fragments) {
    if (f.data && f.index < n && !by_index[f.index]) by_index[f.index] = &f;
  }
  std::vector<const Fragment*> picked;
  for (const Fragment* f : by_index) {
    if (f) picked.push_back(f);
    if (picked.size() == k) return picked;
  }
  return std::nullopt;
}

}  // namespace

bool Codec::is_decodable(const std::vector<Fragment>& fragments) const {
  return pick_distinct(fragments, k(), n()).has_value();
}

// ---------------------------------------------------------------------------
// ReedSolomonCodec
// ---------------------------------------------------------------------------

ReedSolomonCodec::ReedSolomonCodec(std::size_t n, std::size_t k)
    : n_(n), k_(k), generator_(systematic_mds_matrix(n, k)) {
  assert(k >= 1 && k <= n && n <= 255);
}

std::vector<Fragment> ReedSolomonCodec::encode(const Value& v) const {
  std::vector<Fragment> out(n_);
  for (std::uint32_t i = 0; i < n_; ++i) out[i] = encode_one(v, i);
  return out;
}

Fragment ReedSolomonCodec::encode_one(const Value& v,
                                      std::uint32_t index) const {
  assert(index < n_);
  // The length header, then sum_c G[index][c] * stripe c.
  const std::size_t s = (v.size() + k_ - 1) / k_;
  Value frag(kHeaderBytes + s, 0);
  put_len(frag, v.size());
  for (std::size_t c = 0; c < k_; ++c) {
    const std::size_t bytes = stripe_bytes(v.size(), s, c);
    if (bytes == 0) break;  // this stripe and the rest are all padding
    GF256::mul_add_row(generator_.at(index, c), v.data() + c * s,
                       frag.data() + kHeaderBytes, bytes);
  }
  return Fragment{index, std::make_shared<const Value>(std::move(frag))};
}

std::optional<Value> ReedSolomonCodec::decode(
    const std::vector<Fragment>& fragments) const {
  const auto picked = pick_distinct(fragments, k_, n_);
  if (!picked) return std::nullopt;

  // Every fragment must carry the same length header and a payload of
  // exactly ceil(len/k) bytes: fragments arrive over TCP and from the WAL,
  // and a header the payload disagrees with must not steer the copy below.
  const Value& first = *picked->front()->data;
  if (first.size() < kHeaderBytes) return std::nullopt;
  const std::uint64_t len = get_len(first);
  const std::size_t s = first.size() - kHeaderBytes;
  if (s != len / k_ + (len % k_ != 0)) return std::nullopt;

  std::vector<std::size_t> rows(k_);
  std::vector<const std::uint8_t*> payloads(k_);
  std::vector<const std::uint8_t*> systematic(k_, nullptr);  // by stripe
  for (std::size_t i = 0; i < k_; ++i) {
    const Fragment& f = *(*picked)[i];
    if (f.data->size() != first.size() || get_len(*f.data) != len) {
      return std::nullopt;  // inconsistent fragment set
    }
    rows[i] = f.index;
    payloads[i] = f.data->data() + kHeaderBytes;
    if (f.index < k_) systematic[f.index] = payloads[i];
  }

  // A stripe whose systematic fragment is at hand is a copy; the rest are
  // rows of the inverted submatrix, inverted only if some stripe needs it.
  std::optional<Matrix> inv;
  Value v(static_cast<std::size_t>(len), 0);
  for (std::size_t c = 0; c < k_; ++c) {
    const std::size_t bytes = stripe_bytes(len, s, c);
    if (bytes == 0) break;
    std::uint8_t* out = v.data() + c * s;
    if (systematic[c]) {
      std::copy_n(systematic[c], bytes, out);
      continue;
    }
    if (!inv && !(inv = generator_.select_rows(rows).inverse())) {
      return std::nullopt;  // cannot happen for an MDS generator
    }
    for (std::size_t i = 0; i < k_; ++i) {
      GF256::mul_add_row(inv->at(c, i), payloads[i], out, bytes);
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// ReplicationCodec
// ---------------------------------------------------------------------------

std::vector<Fragment> ReplicationCodec::encode(const Value& v) const {
  auto shared = std::make_shared<const Value>(v);
  std::vector<Fragment> out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out[i] = Fragment{static_cast<std::uint32_t>(i), shared};
  }
  return out;
}

Fragment ReplicationCodec::encode_one(const Value& v,
                                      std::uint32_t index) const {
  assert(index < n_);
  return Fragment{index, std::make_shared<const Value>(v)};
}

std::optional<Value> ReplicationCodec::decode(
    const std::vector<Fragment>& fragments) const {
  for (const auto& f : fragments) {
    if (f.data && f.index < n_) return *f.data;
  }
  return std::nullopt;
}

std::shared_ptr<const Codec> make_codec(std::size_t n, std::size_t k) {
  if (k <= 1) return std::make_shared<ReplicationCodec>(n);
  return std::make_shared<ReedSolomonCodec>(n, k);
}

}  // namespace ares::codec
