// R-T2: per-instruction-group SDC/DUE/Masked rates with 95% CIs, per arch —
// the SASSIFI-style vulnerability-by-opcode-class table. Results are pooled
// over a representative workload set so every group has dynamic coverage.
#include "bench_util.h"

namespace {

using namespace gfi;

/// Groups reported in the table, with the injection mode that targets them.
struct GroupSpec {
  sim::InstrGroup group;
  fi::InjectionMode mode;
};

const GroupSpec kGroups[] = {
    {sim::InstrGroup::kInt, fi::InjectionMode::kIov},
    {sim::InstrGroup::kIntMad, fi::InjectionMode::kIov},
    {sim::InstrGroup::kFp32, fi::InjectionMode::kIov},
    {sim::InstrGroup::kFp32Fma, fi::InjectionMode::kIov},
    {sim::InstrGroup::kFp64, fi::InjectionMode::kIov},
    {sim::InstrGroup::kLoad, fi::InjectionMode::kIov},
    {sim::InstrGroup::kAtomic, fi::InjectionMode::kIov},
    {sim::InstrGroup::kWarpComm, fi::InjectionMode::kIov},
    {sim::InstrGroup::kMma, fi::InjectionMode::kIov},
    {sim::InstrGroup::kSetp, fi::InjectionMode::kPred},
    {sim::InstrGroup::kStore, fi::InjectionMode::kIoa},
};

/// Workloads that collectively exercise every group.
std::vector<std::string> pool_for(sim::InstrGroup group) {
  switch (group) {
    case sim::InstrGroup::kFp64:
      return {"stencil"};
    case sim::InstrGroup::kMma:
      return {"gemm_hmma"};
    case sim::InstrGroup::kAtomic:
      return {"histogram", "reduce_u32"};
    case sim::InstrGroup::kWarpComm:
      return {"dotprod"};
    default:
      return {"gemm", "conv2d", "bitonic_sort", "spmv", "softmax"};
  }
}

void merge(fi::CampaignResult& into, const fi::CampaignResult& from) {
  into.records.insert(into.records.end(), from.records.begin(),
                      from.records.end());
  for (int o = 0; o < fi::kOutcomeCount; ++o) {
    into.outcome_counts[o] += from.outcome_counts[o];
  }
}

}  // namespace

int main() {
  using namespace gfi;
  benchx::banner("R-T2",
                 "SDC/DUE/Masked per instruction group, A100 vs H100 "
                 "(pooled workloads)");

  const std::size_t per_campaign =
      std::max<std::size_t>(benchx::injections() / 3, 50);

  Table table("Per-group outcome rates (95% Wilson CI)");
  table.set_header({"group", "mode", "arch", "SDC", "DUE+Hang", "Masked*",
                    "injections"});

  for (const GroupSpec& spec : kGroups) {
    for (arch::GpuModel model : arch::study_models()) {
      fi::CampaignResult pooled;
      bool any = false;
      for (const std::string& workload : pool_for(spec.group)) {
        auto config = benchx::base_config(workload, arch::config_for(model));
        config.model.mode = spec.mode;
        config.group = spec.group;
        config.num_injections = per_campaign;
        auto result = fi::Campaign::run(config);
        if (!result.is_ok()) continue;  // workload lacks this group: skip
        merge(pooled, result.value());
        any = true;
      }
      if (!any) continue;
      const f64 due =
          pooled.rate(fi::Outcome::kDue) + pooled.rate(fi::Outcome::kHang);
      const f64 masked = pooled.rate(fi::Outcome::kMasked) +
                         pooled.rate(fi::Outcome::kMaskedTolerated) +
                         pooled.rate(fi::Outcome::kDetectedCorrected) +
                         pooled.rate(fi::Outcome::kNotActivated);
      table.add_row({sim::group_name(spec.group), fi::to_string(spec.mode),
                     arch::model_name(model),
                     analysis::rate_cell(pooled, fi::Outcome::kSdc),
                     Table::pct(due), Table::pct(masked),
                     std::to_string(pooled.records.size())});
    }
  }
  benchx::emit(table, "r_t2_groups");
  std::printf(
      "*Masked pools bitwise-masked, tolerated, ECC-corrected and\n"
      " never-activated runs.\n"
      "Expected shape: address-feeding groups (IMAD, STORE/IOA) are DUE-\n"
      "heavy; pure dataflow (FP32/FMA/MMA) is SDC-heavy; compares (SETP)\n"
      "split between masked and control-flow-induced failures.\n");
  return 0;
}
