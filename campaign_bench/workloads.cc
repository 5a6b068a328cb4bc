// The three campaign shapes the benchmark measures. BENCHMARK.json records
// why each exists; the comments here say what each cell is configured as.
#include "arch/arch.h"
#include "bench.h"

namespace gfi::cbench {
namespace {

Cell make_cell(const std::string& kernel, const sim::MachineConfig& machine,
               fi::FaultModel model) {
  Cell cell;
  cell.label = kernel + "/" + machine.name;
  cell.config.workload = kernel;
  cell.config.machine = machine;
  cell.config.model = model;
  cell.config.threads = 1;
  return cell;
}

}  // namespace

std::optional<WorkloadKind> parse_workload(const std::string& name) {
  for (const WorkloadKind kind :
       {WorkloadKind::kIovMix, WorkloadKind::kMemRetry,
        WorkloadKind::kJournalAdaptive}) {
    if (name == workload_name(kind)) return kind;
  }
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kIovMix: return "iov-mix";
    case WorkloadKind::kMemRetry: return "mem-retry";
    case WorkloadKind::kJournalAdaptive: return "journal-adaptive";
  }
  return "?";
}

WorkloadSpec make_spec(WorkloadKind kind) {
  WorkloadSpec spec;
  spec.kind = kind;
  const std::vector<sim::MachineConfig> machines = {arch::a100(),
                                                    arch::h100()};
  switch (kind) {
    case WorkloadKind::kIovMix:
      // The paper's headline campaign: IOV single-bit flips over every
      // eligible group, short kernels beside long and SWIFT-hardened ones.
      // Every injection launches with the injector hook attached.
      for (const char* kernel :
           {"histogram", "saxpy", "spmv", "gemm", "saxpy_swift"}) {
        for (const auto& machine : machines) {
          spec.cells.push_back(make_cell(
              kernel, machine,
              {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle}));
        }
      }
      // 24 injections per unit keep the per-call cost of Campaign::run
      // (thread pool, registry, golden-cache lookup) to a few percent of
      // the unit; at 3 it reached 15%.
      spec.unit_injections = 24;
      spec.rows_per_30s = 10;
      spec.swift_registration = true;
      break;
    case WorkloadKind::kMemRetry:
      // Memory-mode double-bit flips under SECDED (the arch default): each
      // consumed upset traps, and transient trap-and-retry relaunches from
      // the checkpoint. No launch carries a hook.
      for (const char* kernel : {"spmv", "saxpy"}) {
        for (const auto& machine : machines) {
          Cell cell = make_cell(
              kernel, machine,
              {fi::InjectionMode::kMemory, fi::BitFlipModel::kDouble,
               fi::FaultPersistence::kTransient});
          cell.config.max_retries = 3;
          spec.cells.push_back(std::move(cell));
        }
      }
      spec.unit_injections = 30;
      spec.rows_per_30s = 30;
      break;
    case WorkloadKind::kJournalAdaptive:
      // The loop around the injection: journal append + flush per record,
      // a heartbeat line per record, per-block planner barriers with
      // sequential stopping and stratified allocation, dead-bit pruning,
      // and a resume from a journal cut mid-record.
      for (const char* kernel : {"histogram", "vecadd"}) {
        for (const auto& machine : machines) {
          Cell cell = make_cell(
              kernel, machine,
              {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle});
          cell.config.threads = 2;
          cell.config.heartbeat_interval_ms = 0;
          cell.config.prune_dead_bits = true;
          cell.config.planner.stop.target_half_width = 0.05;
          cell.config.planner.checkpoint_every = 50;
          cell.config.planner.stratify = true;
          spec.cells.push_back(std::move(cell));
        }
      }
      spec.unit_injections = 600;
      spec.rows_per_30s = 10;
      spec.resume_cut = 0.4;
      break;
  }
  return spec;
}

}  // namespace gfi::cbench
