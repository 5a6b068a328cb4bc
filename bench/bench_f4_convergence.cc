// R-F4: statistical convergence — SDC-rate estimate and 95% CI half-width
// as a function of injection count, against the Leveugle sample-size
// planner. Justifies the ~1000-2000 injections per campaign every FI paper
// uses. Computed from prefixes of one large campaign (same sites).
#include "bench_util.h"

#include "common/stats.h"

int main() {
  using namespace gfi;
  benchx::banner("R-F4", "SDC-rate convergence vs number of injections");

  auto config = benchx::base_config("saxpy", arch::a100());
  config.num_injections = std::max<std::size_t>(benchx::injections() * 4, 1600);
  auto result = benchx::must_run(config);

  Table table("Prefix estimates of P(SDC), saxpy/A100, IOV single-bit");
  table.set_header({"injections", "P(SDC)", "95% CI", "half-width (pp)"});
  for (std::size_t n : {50u, 100u, 200u, 400u, 800u, 1600u}) {
    if (n > result.records.size()) break;
    std::size_t sdc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (result.records[i].outcome == fi::Outcome::kSdc) ++sdc;
    }
    const auto ci = stats::wilson_interval(sdc, n);
    std::string interval = "[";
    interval += Table::pct(ci.lo) + ", ";
    interval += Table::pct(ci.hi) + "]";
    table.add_row({std::to_string(n),
                   Table::pct(static_cast<f64>(sdc) / static_cast<f64>(n)),
                   interval, Table::fmt(ci.half_width() * 100.0, 2)});
  }
  benchx::emit(table, "r_f4_convergence");

  Table planner("Leveugle sample-size planner (95% confidence, p=0.5)");
  planner.set_header({"margin", "required n (infinite population)"});
  for (f64 margin : {0.05, 0.031, 0.022, 0.01}) {
    planner.add_row({Table::pct(margin, 1),
                     std::to_string(stats::required_sample_size(
                         1ULL << 40, margin))});
  }
  benchx::emit(planner, "r_f4_planner");

  std::printf(
      "Expected shape: the half-width shrinks like 1/sqrt(n); ~1000-2000\n"
      "injections give a 2-3pp margin, matching the planner.\n");
  return 0;
}
