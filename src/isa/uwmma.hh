/**
 * @file
 * The UWMMA instruction set (§IV-F, Table V) and execution lifecycle
 * (§IV-G). Each T1 block task is driven by a short instruction
 * sequence:
 *
 *   stc.load.meta_*  — operand collector fills the Meta Buffer (1 cy)
 *   stc.load.a       — matrix A block values into the A buffer (2 cy)
 *   stc.task_gen.*   — ASYNCHRONOUS: TMS+DPGs fill the task queues
 *                      (MV 1-4 cy, MM 1-8 cy); the SM retires the
 *                      instruction immediately
 *   stc.numeric.*    — SDPU execution (MV 1-8 cy, MM 1-64 cy);
 *                      stalls while the queues are not READY
 *
 * The lifecycle simulator below reproduces the overlap: task
 * generation for task i hides behind the numeric phase of task i-1,
 * so in steady state the pipeline is bound by max(numeric, taskgen)
 * plus the synchronous load cycles.
 */

#ifndef UNISTC_ISA_UWMMA_HH
#define UNISTC_ISA_UWMMA_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "bbc/bbc_matrix.hh"
#include "sim/config.hh"

namespace unistc
{

class TaskStream;
struct BlockTask;

/** UWMMA opcodes (Table V). */
enum class UwmmaOp
{
    LoadMetaMv,
    LoadMetaMm,
    LoadA,
    TaskGenMv,
    TaskGenMm,
    NumericMv,
    NumericMm,
};

/** One issued instruction with its resolved cycle cost. */
struct UwmmaInstr
{
    UwmmaOp op = UwmmaOp::LoadMetaMv;
    int cycles = 0;
};

/** Per-T1-task instruction bundle. */
struct TaskBundle
{
    int loadCycles = 0;    ///< Synchronous meta + value loads.
    int taskGenCycles = 0; ///< Asynchronous TMS+DPG work.
    int numericCycles = 0; ///< SDPU execution.
    /**
     * The issued sequence, in the Table V shape: load.meta, load.a,
     * task_gen, numeric.
     */
    std::array<UwmmaInstr, 4> instrs{};
};

// Streams replicate bundles per activation tile: keep that a memmove.
static_assert(std::is_trivially_copyable_v<TaskBundle>);

/**
 * Build the instruction bundle of one T1 task on Uni-STC: MV-variant
 * instructions and cycle bounds when task.isMv. Reuses the task's
 * (possibly primed) pattern summaries and counts SDPU cycles without
 * materialising the schedule; cfg's DPG count bounds task_gen.
 */
TaskBundle buildTaskBundle(const BlockTask &task,
                           const MachineConfig &cfg);

/** Outcome of running an instruction stream through the lifecycle. */
struct LifecycleStats
{
    std::uint64_t totalCycles = 0;   ///< End-to-end cycles.
    std::uint64_t loadCycles = 0;    ///< Synchronous load total.
    std::uint64_t numericCycles = 0; ///< SDPU busy cycles.
    std::uint64_t taskGenStalls = 0; ///< Numeric stalls on BUSY flag.
    std::uint64_t instructions = 0;  ///< Instructions issued.
};

/**
 * Execute a stream of task bundles through the §IV-G lifecycle.
 *
 * @param async_task_gen when true (the Uni-STC design) task
 *        generation overlaps the previous task's numeric phase; when
 *        false every phase serialises (the ablation baseline).
 */
LifecycleStats simulateLifecycle(const std::vector<TaskBundle> &tasks,
                                 bool async_task_gen);

/**
 * Drain a T1 task stream (engine/task_stream.hh) into one UWMMA
 * bundle per task, in stream order — the ISA layer's consumer of the
 * unified kernel plans.
 */
std::vector<TaskBundle> bundleStream(TaskStream &stream,
                                     const MachineConfig &cfg);

/**
 * Build the full instruction stream of SpMV over a BBC matrix
 * (Algorithm 1) or of SpGEMM C = A x B (Algorithm 2). Both are
 * bundleStream() over the corresponding kernel plan's stream.
 */
std::vector<TaskBundle> traceSpmv(const BbcMatrix &a,
                                  const MachineConfig &cfg);
std::vector<TaskBundle> traceSpgemm(const BbcMatrix &a,
                                    const BbcMatrix &b,
                                    const MachineConfig &cfg);

/** Instruction stream of SpMM with a dense b_cols-wide B. */
std::vector<TaskBundle> traceSpmm(const BbcMatrix &a, int b_cols,
                                  const MachineConfig &cfg);

} // namespace unistc

#endif // UNISTC_ISA_UWMMA_HH
