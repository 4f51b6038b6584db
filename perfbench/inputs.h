// Seeded input generator: every random choice a workload makes comes from
// here, derived from the one --seed argument. The library only ever sees
// the generated inputs (route-loader text, flow tuples, traffic and fault
// seeds), never the benchmark seed itself.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// One stable 5-tuple of the linerate_mix traffic.
struct MixFlow {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;
};

// linerate_mix: 8 x 100 Mbps + 2 x 1 Gbps ports.
inline constexpr int kMixPorts = 10;
inline constexpr int kMixPrefixes = 4000;
inline constexpr int kMixFlowsPerPort = 64;

struct LineRateInputs {
  // Route-loader text ("<prefix> <port>" per line), fed to
  // LoadRoutesFromString. Prefixes never overlap, so each flow's output
  // port is exactly the port of the prefix it was drawn from.
  std::string routes_text;
  // Flows per input port, most popular first (Zipf rank order). A port's
  // flows all leave through one output port of the same speed (a
  // permutation), so no output is offered more than its line rate.
  std::vector<std::vector<MixFlow>> flows;
  // (input port, flow index) of the flows installed to the Pentium (path C)
  // and of those given a per-flow VRP program on the MicroEngines.
  std::vector<std::pair<int, int>> pentium_flows;
  std::vector<std::pair<int, int>> vrp_flows;
  // Per-port traffic streams (size mix, flow choice, IP options).
  std::vector<uint64_t> port_seeds;
};

struct Inputs {
  LineRateInputs linerate;      // filled for linerate_mix only
  uint64_t cluster_seed = 0;    // cluster8: per-node pump streams derive from it
  uint64_t fault_seed = 0;      // overload_chaos: FaultPlan::OverloadChaos(fault_seed)
  uint64_t flood_seed = 0;      // overload_chaos: flood generators
  uint64_t conforming_seed = 0; // overload_chaos: conforming source
};

// Deterministic in (workload, seed). fifo_min draws nothing: its input is
// the router's own synthetic MP stream.
Inputs GenerateInputs(const std::string& workload, uint64_t seed);

// Output port of input port `p` in linerate_mix (a speed-preserving
// permutation: 100 Mbps ports rotate among themselves, the two gigabit
// ports swap).
int MixOutputPort(int p);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
