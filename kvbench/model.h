// The benchmark's model of acknowledged writes, and the checks against it.
//
// Every value the benchmark writes is a pure function of (seed, key, write
// sequence): a text head naming the key and the sequence, then bytes drawn
// from the seed and the sequence. A value read back can therefore be
// regenerated and compared byte for byte, so a stale value (an older
// sequence), a value of another key, or a corrupted byte is caught.
//
// The load generator keeps at most one op in flight per key, so after an
// acknowledged put the key holds exactly that write. A put that FAILED may
// or may not have landed; the model then admits either value until the next
// acknowledged put of the key settles it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace kvbench {

using recipe::Bytes;
using recipe::BytesView;

class Model {
 public:
  Model(std::uint64_t seed, std::size_t keys, std::size_t value_bytes)
      : seed_(seed), value_bytes_(value_bytes), entries_(keys) {
    names_.reserve(keys);
    for (std::size_t i = 0; i < keys; ++i) {
      char name[24];
      std::snprintf(name, sizeof(name), "user%06zu", i);
      names_.emplace_back(name);
    }
  }

  std::size_t keys() const { return entries_.size(); }
  const std::string& key_name(std::size_t key) const { return names_[key]; }

  // The bytes write `seq` stores under `key`.
  Bytes value(std::size_t key, std::uint64_t seq) const {
    Bytes out(value_bytes_, 0);
    char head[48];
    const int n = std::snprintf(head, sizeof(head), "%s|%llu|",
                                names_[key].c_str(),
                                static_cast<unsigned long long>(seq));
    std::size_t i = 0;
    for (; i < out.size() && i < static_cast<std::size_t>(n); ++i) {
      out[i] = static_cast<std::uint8_t>(head[i]);
    }
    std::uint64_t state = seed_ ^ (seq * 0x9E3779B97F4A7C15ULL);
    while (i < out.size()) {
      std::uint64_t word = recipe::splitmix64(state);
      for (int b = 0; b < 8 && i < out.size(); ++b, ++i) {
        out[i] = static_cast<std::uint8_t>(word);
        word >>= 8;
      }
    }
    return out;
  }

  // A put of `seq` was acknowledged: the key now holds exactly that write.
  void put_acked(std::size_t key, std::uint64_t seq) {
    Entry& e = entries_[key];
    e.written = true;
    e.seq = seq;
    e.maybe.clear();
  }

  // A put of `seq` failed: its write may or may not have landed.
  void put_unknown(std::size_t key, std::uint64_t seq) {
    entries_[key].maybe.push_back(seq);
  }

  // True when a read of `key` may return (found, value) right now.
  bool admits(std::size_t key, bool found, BytesView got) const {
    const Entry& e = entries_[key];
    if (!found) return !e.written;  // a failed put never deletes
    if (e.written && matches(key, e.seq, got)) return true;
    for (std::uint64_t seq : e.maybe) {
      if (matches(key, seq, got)) return true;
    }
    return false;
  }

  // Compares a whole replica store against the model. `lookup(name)` returns
  // the stored value or nothing; `store_size` is the store's key count (a
  // key the model never wrote must not be there). Returns the number of
  // disagreeing keys, counting a size mismatch as one.
  template <typename Lookup>
  std::size_t diff_store(std::size_t store_size, Lookup&& lookup) const {
    std::size_t bad = 0;
    std::size_t present = 0;
    for (std::size_t key = 0; key < entries_.size(); ++key) {
      const std::optional<Bytes> got = lookup(names_[key]);
      if (got) ++present;
      const BytesView view =
          got ? BytesView(got->data(), got->size()) : BytesView{};
      if (!admits(key, got.has_value(), view)) ++bad;
    }
    if (store_size != present) ++bad;
    return bad;
  }

 private:
  struct Entry {
    bool written = false;
    std::uint64_t seq = 0;
    std::vector<std::uint64_t> maybe;  // failed puts that may have landed
  };

  bool matches(std::size_t key, std::uint64_t seq, BytesView got) const {
    const Bytes want = value(key, seq);
    return got.size() == want.size() &&
           std::equal(want.begin(), want.end(), got.begin());
  }

  std::uint64_t seed_;
  std::size_t value_bytes_;
  std::vector<std::string> names_;
  std::vector<Entry> entries_;
};

}  // namespace kvbench
