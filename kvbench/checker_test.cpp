// The checker must reject what it exists to catch: a replica store with one
// corrupted value, a stale read, a missing or extra key. Each case is paired
// with the matching correct input, which must pass, so a checker that
// rejects everything fails here too.
//
// Usage: checker_test   (exit 0 when every case holds)
#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "model.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

using Store = std::map<std::string, kvbench::Bytes>;

std::size_t diff(const kvbench::Model& model, const Store& store) {
  return model.diff_store(
      store.size(),
      [&](const std::string& name) -> std::optional<kvbench::Bytes> {
        const auto it = store.find(name);
        if (it == store.end()) return std::nullopt;
        return it->second;
      });
}

}  // namespace

int main() {
  constexpr std::size_t kKeys = 64;
  kvbench::Model model(/*seed=*/7, kKeys, /*value_bytes=*/64);

  // Two acknowledged writes per key; the replica applied both.
  Store replica;
  for (std::size_t key = 0; key < kKeys; ++key) {
    model.put_acked(key, 100 + key);
    model.put_acked(key, 200 + key);
    replica[model.key_name(key)] = model.value(key, 200 + key);
  }
  expect(diff(model, replica) == 0, "store equal to the model is accepted");

  Store corrupted = replica;
  corrupted[model.key_name(5)][40] ^= 0x01;
  expect(diff(model, corrupted) == 1, "one corrupted value byte is rejected");

  Store stale = replica;
  stale[model.key_name(9)] = model.value(9, 100 + 9);
  expect(diff(model, stale) == 1, "a store holding a stale write is rejected");

  Store missing = replica;
  missing.erase(model.key_name(3));
  expect(diff(model, missing) > 0, "a store missing a key is rejected");

  Store extra = replica;
  extra["not-a-model-key"] = model.value(0, 200);
  expect(diff(model, extra) > 0, "a store with an extra key is rejected");

  const kvbench::Bytes fresh = model.value(12, 200 + 12);
  const kvbench::Bytes old = model.value(12, 100 + 12);
  const kvbench::Bytes other_key = model.value(13, 200 + 12);
  expect(model.admits(12, true, fresh), "a fresh read is accepted");
  expect(!model.admits(12, true, old), "a stale read is rejected");
  expect(!model.admits(12, true, other_key),
         "a read carrying another key's value is rejected");
  expect(!model.admits(12, false, {}), "a lost key is rejected");

  // A failed put may or may not have landed: both outcomes are admitted
  // until the next acknowledged put, after which only that one is.
  model.put_unknown(20, 300);
  expect(model.admits(20, true, model.value(20, 300)) &&
             model.admits(20, true, model.value(20, 220)),
         "after a failed put, old and new values are both admitted");
  model.put_acked(20, 400);
  expect(!model.admits(20, true, model.value(20, 300)),
         "an acknowledged put settles an earlier failed one");

  std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
