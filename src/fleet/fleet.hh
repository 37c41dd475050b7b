/**
 * @file
 * Fleet-level configuration and operator-facing types.
 *
 * A fleet is N BM-Store cards inside ONE deterministic simulation
 * (TestbedConfig::sharedSim), operated the way a cloud control plane
 * operates real cards: exclusively through each card's out-of-band
 * NVMe-MI console verbs. Nothing in src/fleet reaches into a card's
 * engine or controller objects on the data path — placement reads
 * `df` (0xCA), waves drive `firmwareUpgrade` (0xC4) and `hotPlug`
 * (0xC5), fault recovery uses `failNode` (0xCD), and so on.
 */

#ifndef BMS_FLEET_FLEET_HH
#define BMS_FLEET_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine/qos.hh"
#include "sim/types.hh"

namespace bms::fleet {

/** QoS service classes sold by the operator (maps to QosLimits). */
enum class QosClass : std::uint8_t
{
    Bronze, ///< best effort, modest IOPS cap
    Silver, ///< mid cap
    Gold,   ///< high cap
};

/** Per-class limits; generous enough not to throttle fuzz drains. */
core::QosLimits qosLimitsFor(QosClass cls);

/** One tenant admission request (what a buy-API call carries). */
struct TenantRequest
{
    std::uint64_t bytes = 0;
    QosClass qos = QosClass::Bronze;
    /** Thin namespaces promise bytes without reserving chunks. */
    bool thin = false;
    /**
     * Anti-affinity group (-1 = none): two tenants of the same group
     * never land on the same card — a replicated database's nodes
     * must not share a blast radius.
     */
    int antiAffinityGroup = -1;
};

/** Outcome of one placement decision. */
struct Placement
{
    bool ok = false;
    int card = -1;
    std::uint8_t fn = 0;      ///< front-end function on the card
    std::uint32_t nsid = 0;
    std::uint64_t freeChunksAtAdmit = 0; ///< chosen card's headroom
    std::string reason;       ///< failure reason when !ok
};

/** Fleet-wide sizing and per-card shape. */
struct FleetConfig
{
    int cards = 4;
    int ssdsPerCard = 2; ///< >= 2 keeps lossless replacement possible
    std::uint64_t seed = 1;
    /**
     * Shrunk card geometry: fleet runs trade per-card capacity for
     * card count so tens of cards and thousands of namespaces fit
     * one event queue. 256 MiB SSDs in 4 MiB chunks give 64 chunks
     * per slot — plenty of placement texture.
     */
    std::uint64_t ssdCapacityBytes = sim::mib(256);
    std::uint64_t chunkBytes = sim::mib(4);
    /** Small driver shape: admission cost is dominated by driver
     *  bring-up, and fleet tenants are probes, not fio rigs. */
    std::uint16_t ioQueues = 1;
    std::uint16_t queueDepth = 64;
    /**
     * Overcommit cap: logical (promised) chunks per card may reach
     * this multiple of physical chunks before thin admissions are
     * refused. 1.0 disables overcommit.
     */
    double overcommitCap = 2.0;
    /** Function budget per card (4 PFs + up to 124 VFs). */
    int maxTenantsPerCard = 128;
    /**
     * QoS headroom: the sum of admitted tenants' IOPS limits on one
     * card may not exceed this budget (the modeled card ceiling; the
     * paper's card saturates around 2 MIOPS, we leave margin).
     */
    double cardIopsBudget = 1'600'000.0;
    /**
     * Firmware activation stall, fleet-scaled: the P4510's real
     * 5.9-8.8 s window would make a 32-card wave dominate every
     * horizon; production fleets stagger activations anyway.
     */
    sim::Tick fwActivateMin = sim::milliseconds(150);
    sim::Tick fwActivateMax = sim::milliseconds(250);
    /** Remote storage nodes behind each card (node-loss drills). */
    int remoteNodesPerCard = 0;
};

/** Rolling-wave operation kind. */
enum class WaveOp : std::uint8_t
{
    FirmwareUpgrade,    ///< 0xC4 per slot, card by card
    LosslessReplace,    ///< 0xC5 lossless per slot, card by card
};

/** One rolling wave's parameters. */
struct WaveConfig
{
    WaveOp op = WaveOp::FirmwareUpgrade;
    std::uint32_t imageBytes = 1u << 20;
    /**
     * Failure budget: verb failures plus availability-gate trips the
     * wave may absorb before pausing. The operator resumes with a
     * fresh budget (after fixing the cause) or aborts.
     */
    int failureBudget = 0;
    /**
     * Per-tenant availability gate, checked after every per-slot op:
     * the longest submit→complete gap any tenant saw so far must stay
     * under this bound (0 disables the gate). The paper's hot-upgrade
     * transparency claim, enforced fleet-wide.
     */
    sim::Tick availabilityBound = 0;
};

/** Where a paused/finished wave stands. */
enum class WaveState : std::uint8_t
{
    Idle,
    Running,
    Paused,  ///< failure budget exhausted; resume() continues
    Aborted, ///< operator gave up
    Done,
};

/** Wave outcome (valid once state() is Done/Aborted). */
struct WaveReport
{
    WaveState state = WaveState::Idle;
    int cardsDone = 0;
    std::uint32_t opsOk = 0;
    std::uint32_t opsFailed = 0;
    std::uint32_t gateTrips = 0;
    std::uint32_t pauses = 0;
    /** Ticks from wave start to completion (pause time included). */
    sim::Tick makespan = 0;
    double ioPauseMsMax = 0.0; ///< worst per-slot I/O pause reported
    std::uint64_t evacuatedChunks = 0; ///< lossless waves only
};

/** A correlated failure drill injected mid-wave. */
struct FaultDrill
{
    /** Cards hit (every stride-th card starting at first). */
    int firstCard = 0;
    int cardStride = 2;
    sim::Tick at = 0;
    sim::Tick duration = sim::milliseconds(20);
    double readErrorRate = 0.01;
    double writeErrorRate = 0.01;
    double latencySpikeRate = 0.02;
    /** Also declare storage node 0 of each hit card dead (failNode
     *  verb) — requires remoteNodesPerCard > 0. */
    bool loseNode = false;
    /** Fire a redundant concurrent upgrade at each hit card (upgrade
     *  storm); the controller must reject it cleanly. */
    bool upgradeStorm = false;
};

} // namespace bms::fleet

#endif // BMS_FLEET_FLEET_HH
