// R-A2 (ablation/validation): composed-vs-direct vulnerability. Estimate a
// program's SDC rate from per-group campaign rates weighted by its dynamic
// instruction mix, and compare with the directly measured unfiltered rate —
// the internal-consistency check SASSIFI performs for its methodology.
#include "bench_util.h"

#include "analysis/compare.h"

int main() {
  using namespace gfi;
  benchx::banner("R-A2",
                 "Composed (per-group x mix) vs direct SDC rate, A100");

  Table table("IOV single-bit SDC: composed estimate vs direct measurement");
  table.set_header({"workload", "composed", "direct", "abs diff (pp)"});

  const std::size_t per_group =
      std::max<std::size_t>(benchx::injections() / 2, 80);
  for (const std::string& workload :
       {std::string("gemm"), std::string("conv2d"), std::string("saxpy"),
        std::string("spmv")}) {
    auto base = benchx::base_config(workload, arch::a100());
    auto golden = fi::Campaign::golden_run(base);
    if (!golden.is_ok()) return 1;

    // Per-group campaigns over the groups IOV can strike.
    analysis::GroupRates rates;
    for (int g = 0; g < sim::kInstrGroupCount; ++g) {
      const auto group = static_cast<sim::InstrGroup>(g);
      if (!fi::mode_targets_group(fi::InjectionMode::kIov, group)) continue;
      if (golden.value().profile.group_warp_count(group) == 0) continue;
      auto config = base;
      config.group = group;
      config.num_injections = per_group;
      auto result = fi::Campaign::run(config);
      if (!result.is_ok()) continue;
      rates.set(group, result.value().rate(fi::Outcome::kSdc));
    }
    const f64 composed =
        analysis::composed_rate(golden.value().profile, rates);

    auto direct_config = base;
    direct_config.num_injections =
        std::max<std::size_t>(benchx::injections(), 300);
    auto direct = benchx::must_run(direct_config);
    const f64 measured = direct.rate(fi::Outcome::kSdc);

    table.add_row({workload, Table::pct(composed), Table::pct(measured),
                   Table::fmt(std::abs(composed - measured) * 100.0, 2)});
  }
  benchx::emit(table, "r_a2_avf");
  std::printf(
      "Expected shape: composed and direct agree to within a few points\n"
      "(sampling noise) — uniform site sampling really is equivalent to\n"
      "mix-weighted per-group sampling.\n");
  return 0;
}
