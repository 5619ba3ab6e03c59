// calibrate — a fixed unit of host work, timed by the benchmark to gauge
// how fast the host is running right now.
//
// The work resembles the engine's (hash-table inserts and probes over a
// few MB, string building and hashing, allocation) but does not depend
// on the ocdx sources, so its cost changes only with the host. run.py
// runs it once per timed round and scales the round timings by how long
// it took (see README.md, "Host speed"). Prints a checksum so that the
// work cannot be optimized away; the checksum is the same on every run.

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

int main() {
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<std::string> words;
  for (uint64_t i = 0; i < 100000; ++i) {
    uint64_t v = next();
    table[v % 250000] += i;
    if (i % 8 == 0) words.push_back(std::to_string(v));
  }
  uint64_t sum = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100000; ++i) {
      auto it = table.find(next() % 250000);
      if (it != table.end()) sum += it->second;
    }
  }
  std::unordered_map<std::string, int> counts;
  for (const std::string& w : words) ++counts[w];
  std::printf("%llu %zu\n", static_cast<unsigned long long>(sum),
              counts.size());
  return 0;
}
