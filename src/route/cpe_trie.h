// Longest-prefix match via controlled prefix expansion (Srinivasan &
// Varghese, TOCS 1999 — reference [22] of the paper).
//
// A fixed-stride multibit trie: each prefix is expanded to the next stride
// boundary, with longer prefixes overwriting the expansion of shorter ones
// (leaf pushing). Lookup inspects at most one node per stride level; the
// paper reports this algorithm costs ~236 cycles per packet on the
// StrongARM, far beyond the VRP budget, which is why full lookups run above
// the MicroEngines while the fast path uses a route cache.

#ifndef SRC_ROUTE_CPE_TRIE_H_
#define SRC_ROUTE_CPE_TRIE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/route/prefix.h"

namespace npr {

class CpeTrie {
 public:
  // `strides` must sum to 32. The paper-era default {16, 8, 8} gives at
  // most three memory accesses per lookup.
  explicit CpeTrie(std::vector<int> strides = {16, 8, 8});

  // Inserts (or replaces) a prefix mapping to `value`. Value is an opaque
  // next-hop handle (index into the route table's entry array).
  void Insert(const Prefix& prefix, uint32_t value);

  struct LookupResult {
    std::optional<uint32_t> value;
    int nodes_visited = 0;  // = memory accesses a hardware walk would make
  };
  LookupResult Lookup(uint32_t ip) const;

  // Removes everything (RouteTable rebuilds on withdrawals).
  void Clear();

  size_t node_count() const { return nodes_.size(); }
  // Total table memory if each slot were a 4-byte SRAM word.
  size_t MemoryBytes() const;

 private:
  struct Slot {
    int32_t child = -1;       // node index, or -1
    int32_t value = -1;       // next-hop handle, or -1
    uint8_t value_plen = 0;   // prefix length that wrote `value` (for priority)
  };
  struct Node {
    int level;
    std::vector<Slot> slots;
  };

  int NewNode(int level);
  void InsertAt(int node_idx, uint32_t addr, uint8_t len, uint32_t value, int bit_off);

  std::vector<int> strides_;
  std::vector<Node> nodes_;
};

}  // namespace npr

#endif  // SRC_ROUTE_CPE_TRIE_H_
