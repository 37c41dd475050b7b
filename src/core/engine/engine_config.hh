/**
 * @file
 * BMS-Engine configuration: front-end SR-IOV shape, pipeline
 * latencies, back-end link widths, and the zero-copy ablation switch.
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
    int pfCount = 4;
    int vfCount = 124;

    /** Back-end SSD slots (two x8 interfaces → 4 x4 slots). */
    int ssdSlots = 4;
    int backendLanes = 4;

    /**
     * Engine pipeline latency from SQE arrival to back-end forward:
     * target-controller decode + LBA map lookup + QoS decision.
     */
    sim::Tick frontPipelineDelay = sim::nanoseconds(900);

    /** Completion-side pipeline: back-end CQE to front CQE post. */
    sim::Tick completionPipelineDelay = sim::nanoseconds(500);

    /** Per-transfer DMA routing cost (function-id decode + forward). */
    sim::Tick dmaRouteDelay = sim::nanoseconds(150);

    /** Chip SRAM/DRAM access latency for SSD-initiated fetches. */
    sim::Tick chipMemLatency = sim::nanoseconds(200);

    /**
     * Zero-copy DMA routing (the paper's design). When false, data is
     * staged through engine DRAM (store-and-forward ablation): each
     * transfer additionally occupies the DRAM channel and waits for
     * full reception before forwarding.
     */
    bool zeroCopy = true;

    /** Engine DRAM bandwidth for the store-and-forward ablation. */
    sim::Bandwidth engineDramBw = sim::Bandwidth::gbPerSec(8.0);

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

    /** IO queue pairs each front function advertises. */
    std::uint16_t frontMaxIoQueues = 64;

    int totalFunctions() const { return pfCount + vfCount; }
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_ENGINE_CONFIG_HH
