/**
 * @file
 * BMS-Engine configuration: the fixed front-end SR-IOV shape, link
 * widths and datapath costs, plus the knobs benches, tests and the
 * fuzzer set (slots, pipeline latencies, arbitration, the zero-copy
 * ablation switch).
 */

#ifndef BMS_CORE_ENGINE_ENGINE_CONFIG_HH
#define BMS_CORE_ENGINE_ENGINE_CONFIG_HH

#include <cstdint>

#include "nvme/controller.hh"
#include "sim/types.hh"

namespace bms::core {

/** Static configuration of one BMS-Engine card. */
struct EngineConfig
{
    /** Front end: 4 PFs + 124 VFs (paper §IV-E). */
    static constexpr int kPfCount = 4;
    static constexpr int kVfCount = 124;

    static constexpr int totalFunctions() { return kPfCount + kVfCount; }

    /** IO queue pairs each front function advertises. */
    static constexpr std::uint16_t kFrontMaxIoQueues = 64;

    /** PCIe lanes per back-end SSD slot. */
    static constexpr int kBackendLanes = 4;

    /** Per-transfer DMA routing cost (function-id decode + forward). */
    static constexpr sim::Tick kDmaRouteDelay = sim::nanoseconds(150);

    /** Chip SRAM/DRAM access latency for SSD-initiated fetches. */
    static constexpr sim::Tick kChipMemLatency = sim::nanoseconds(200);

    /** Engine DRAM bandwidth for the store-and-forward ablation. */
    static constexpr sim::Bandwidth kEngineDramBw =
        sim::Bandwidth::gbPerSec(8.0);

    /** Back-end SSD slots (two x8 interfaces → 4 x4 slots). */
    int ssdSlots = 4;

    /**
     * Engine pipeline latency from SQE arrival to back-end forward:
     * target-controller decode + LBA map lookup + QoS decision.
     */
    sim::Tick frontPipelineDelay = sim::nanoseconds(900);

    /** Completion-side pipeline: back-end CQE to front CQE post. */
    sim::Tick completionPipelineDelay = sim::nanoseconds(500);

    /**
     * Zero-copy DMA routing (the paper's design). When false, data is
     * staged through engine DRAM (store-and-forward ablation): each
     * transfer additionally occupies the DRAM channel and waits for
     * full reception before forwarding.
     */
    bool zeroCopy = true;

    /**
     * Front-end SQ fetch arbitration across each function's IO SQs
     * (paper §IV-E: the engine exposes full multi-queue virtual
     * controllers). RoundRobin is the hardware default; the back-end
     * SSD controllers keep their own (Immediate) config.
     */
    nvme::ArbitrationMode frontArb = nvme::ArbitrationMode::RoundRobin;

    /** SQEs fetched from one SQ per arbitration service. */
    std::uint8_t frontArbBurst = 8;

    /** Doorbell batching window for front functions (0 = same-tick). */
    sim::Tick frontDoorbellBatch = 0;
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_ENGINE_CONFIG_HH
