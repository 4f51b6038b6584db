#include "perfbench/inputs.h"

#include <set>

#include "src/fault/fault_plan.h"
#include "src/sim/random.h"

namespace perfbench {
namespace {

// An independent stream per purpose, derived as the fault plans derive
// per-node streams.
uint64_t Derive(uint64_t seed, int salt) { return npr::FaultPlan::DeriveNodeSeed(seed, salt); }

std::string Dotted(uint32_t ip) {
  return std::to_string(ip >> 24) + "." + std::to_string((ip >> 16) & 255) + "." +
         std::to_string((ip >> 8) & 255) + "." + std::to_string(ip & 255);
}

LineRateInputs MakeLineRate(uint64_t seed) {
  npr::Rng rng(Derive(seed, 1));
  LineRateInputs in;

  // Prefixes: distinct /20 blocks of 20.0.0.0-99.255.255.255, each holding
  // one /20, /22 or /24 at its base, so no two prefixes overlap.
  struct Prefix {
    uint32_t base;
    int len;
  };
  std::vector<std::vector<Prefix>> by_port(kMixPorts);
  std::set<uint32_t> blocks;
  const uint32_t first_block = 20u << 12;  // /20 block index of 20.0.0.0
  const uint32_t num_blocks = 80u << 12;
  for (int i = 0; i < kMixPrefixes; ++i) {
    uint32_t block;
    do {
      block = first_block + static_cast<uint32_t>(rng.Uniform(num_blocks));
    } while (!blocks.insert(block).second);
    const int lens[] = {20, 22, 24};
    Prefix p{block << 12, lens[rng.Uniform(3)]};
    const int port = i % kMixPorts;
    by_port[static_cast<size_t>(port)].push_back(p);
    in.routes_text += Dotted(p.base) + "/" + std::to_string(p.len) + " " +
                      std::to_string(port) + "\n";
  }

  in.flows.resize(kMixPorts);
  for (int port = 0; port < kMixPorts; ++port) {
    const int out = MixOutputPort(port);
    const auto& prefixes = by_port[static_cast<size_t>(out)];
    for (int f = 0; f < kMixFlowsPerPort; ++f) {
      const Prefix& p = prefixes[rng.Uniform(prefixes.size())];
      const uint32_t hosts = 1u << (32 - p.len);
      MixFlow flow;
      flow.dst_ip = p.base + 1 + static_cast<uint32_t>(rng.Uniform(hosts - 2));
      flow.src_ip = (172u << 24) | (16u << 16) | (static_cast<uint32_t>(port) << 8) |
                    static_cast<uint32_t>(1 + rng.Uniform(254));
      flow.src_port = static_cast<uint16_t>(rng.Range(1024, 65535));
      const uint16_t services[] = {53, 80, 443, 8080};
      flow.dst_port = services[rng.Uniform(4)];
      flow.protocol = rng.Chance(0.3) ? 6 : 17;  // TCP : UDP
      in.flows[static_cast<size_t>(port)].push_back(flow);
    }
    in.port_seeds.push_back(Derive(seed, 100 + port));
  }

  // Path C: one mid-popularity flow on each of four ports (well under 1% of
  // the traffic, inside the Pentium's admission budget). Per-flow VRP
  // programs go on popular flows of four other ports.
  for (int port : {0, 2, 4, 8}) {
    in.pentium_flows.push_back({port, 10 + static_cast<int>(rng.Uniform(10))});
  }
  for (int port : {1, 3, 5, 9}) {
    in.vrp_flows.push_back({port, static_cast<int>(rng.Uniform(5))});
  }
  return in;
}

}  // namespace

int MixOutputPort(int p) {
  if (p < 8) {
    return (p + 1) % 8;
  }
  return p == 8 ? 9 : 8;
}

Inputs GenerateInputs(const std::string& workload, uint64_t seed) {
  Inputs in;
  if (workload == "linerate_mix") {
    in.linerate = MakeLineRate(seed);
  }
  in.cluster_seed = Derive(seed, 2);
  in.fault_seed = Derive(seed, 3);
  in.flood_seed = Derive(seed, 4);
  in.conforming_seed = Derive(seed, 5);
  return in;
}

}  // namespace perfbench
