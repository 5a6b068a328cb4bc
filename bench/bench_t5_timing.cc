// R-T5: simulator timing sanity — dynamic instructions, model cycles and
// wall-model time per workload on A100 vs H100, with the H100 speedup.
// Grounds the cross-arch comparison: the H100 model is faster across the
// board, as the silicon is.
#include "bench_util.h"

int main() {
  using namespace gfi;
  benchx::banner("R-T5", "Golden-run timing per workload, A100 vs H100");

  Table table("Golden launch statistics");
  table.set_header({"workload", "warp instrs", "A100 cycles", "A100 us",
                    "H100 cycles", "H100 us", "H100 speedup"});
  for (const std::string& name : benchx::suite()) {
    auto a_gold =
        fi::Campaign::golden_run(benchx::base_config(name, arch::a100()));
    auto h_gold =
        fi::Campaign::golden_run(benchx::base_config(name, arch::h100()));
    if (!a_gold.is_ok() || !h_gold.is_ok()) return 1;
    sim::LaunchResult a_time, h_time;
    a_time.cycles = a_gold.value().cycles;
    h_time.cycles = h_gold.value().cycles;
    const f64 a_us = a_time.time_us(arch::a100());
    const f64 h_us = h_time.time_us(arch::h100());
    table.add_row({name, std::to_string(a_gold.value().dyn_instrs),
                   std::to_string(a_gold.value().cycles),
                   Table::fmt(a_us, 2), std::to_string(h_gold.value().cycles),
                   Table::fmt(h_us, 2), Table::fmt(a_us / h_us, 2) + "x"});
  }
  benchx::emit(table, "r_t5_timing");
  return 0;
}
