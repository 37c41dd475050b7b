/**
 * @file
 * NVMe Management Interface (NVMe-MI) message layer carried over
 * MCTP (paper §IV-D: "the NVMe MI protocol analyzer parses these
 * commands and sends them to the corresponding modules in the
 * BMS-Controller").
 *
 * We implement the standard health poll plus the BM-Store vendor
 * command set the production deployment uses for namespace
 * management, QoS, I/O statistics, firmware hot-upgrade and
 * hot-plug.
 */

#ifndef BMS_CORE_MGMT_NVME_MI_HH
#define BMS_CORE_MGMT_NVME_MI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine/qos.hh"
#include "core/mgmt/wire.hh"

namespace bms::core {

/** NVMe-MI opcodes (standard subset + BM-Store vendor range). */
enum class MiOpcode : std::uint8_t
{
    HealthStatusPoll = 0x01,
    VendorListNamespaces = 0xC0,
    VendorCreateNamespace = 0xC1,
    VendorDestroyNamespace = 0xC2,
    VendorIoStats = 0xC3,
    VendorFirmwareUpgrade = 0xC4,
    VendorHotPlug = 0xC5,
    VendorSetQos = 0xC6,
    VendorMigrateChunk = 0xC7,
    VendorEvacuate = 0xC8,
    VendorMigrationStatus = 0xC9,
    VendorDf = 0xCA,
    VendorTierStats = 0xCB,
    VendorSetTierPolicy = 0xCC,
    VendorFailNode = 0xCD,
    VendorSnapshot = 0xCE,
    VendorClone = 0xCF,
    VendorDeleteSnapshot = 0xD0,
};

/** NVMe-MI response status. */
enum class MiStatus : std::uint8_t
{
    Success = 0x00,
    InvalidParameter = 0x04,
    InternalError = 0x22,
};

/**
 * Framed NVMe-MI message: [kind u8][opcode u8][status u8][tag u16]
 * [payload]. The status byte is meaningful in responses only.
 */
struct MiMessage
{
    enum class Kind : std::uint8_t
    {
        Request = 0,
        Response = 1,
    };

    Kind kind = Kind::Request;
    MiOpcode opcode = MiOpcode::HealthStatusPoll;
    MiStatus status = MiStatus::Success; // responses only
    std::uint16_t tag = 0;
    std::vector<std::uint8_t> payload;

    template <class Io>
    void io(Io &x) { x(kind, opcode, status, tag, wire::Rest{payload}); }

    std::vector<std::uint8_t>
    serialize() const
    {
        return wire::encode(*this);
    }

    /** @return false when @p raw is shorter than the header. */
    static bool
    parse(const std::vector<std::uint8_t> &raw, MiMessage &out)
    {
        return wire::decode(raw, out);
    }
};

// Payloads: every request and response of the implemented opcodes,
// each with its one field list in wire order (see wire.hh).

/** No payload (polls and status-only answers). */
struct MiEmpty
{
    template <class Io>
    void io(Io &) {}
};

/** @name Requests. */
/// @{
/** VendorCreateNamespace request. */
struct MiCreateNamespaceReq
{
    std::uint8_t fn = 0;
    std::uint64_t bytes = 0;
    std::uint8_t policy = 0; ///< NamespaceManager::Policy
    QosLimits qos;
    bool thin = false;

    template <class Io>
    void
    io(Io &x)
    {
        x(fn, bytes, policy, qos.iopsLimit, qos.mbPerSecLimit, thin);
    }
};

/** A namespace (VendorDestroyNamespace, VendorSnapshot requests). */
struct MiNsRef
{
    std::uint8_t fn = 0;
    std::uint32_t nsid = 1;

    template <class Io>
    void io(Io &x) { x(fn, nsid); }
};

/** VendorSetQos request. */
struct MiSetQosReq
{
    std::uint8_t fn = 0;
    std::uint32_t nsid = 1;
    QosLimits qos;

    template <class Io>
    void io(Io &x) { x(fn, nsid, qos.iopsLimit, qos.mbPerSecLimit); }
};

/** A front-end function (VendorIoStats request). */
struct MiFn
{
    std::uint8_t fn = 0;

    template <class Io>
    void io(Io &x) { x(fn); }
};

/** A back-end slot (VendorEvacuate request). */
struct MiSlot
{
    std::uint8_t slot = 0;

    template <class Io>
    void io(Io &x) { x(slot); }
};

/** VendorFirmwareUpgrade request. */
struct MiUpgradeReq
{
    std::uint8_t slot = 0;
    std::uint32_t imageBytes = 0;

    template <class Io>
    void io(Io &x) { x(slot, imageBytes); }
};

/** VendorHotPlug request. */
struct MiHotPlugReq
{
    std::uint8_t slot = 0;
    bool lossless = false;

    template <class Io>
    void io(Io &x) { x(slot, lossless); }
};

/** VendorMigrateChunk request. */
struct MiMigrateReq
{
    /** dstSlot value that lets the controller pick the destination. */
    static constexpr std::uint8_t kAutoSlot = 0xFF;

    std::uint8_t fn = 0;
    std::uint32_t nsid = 1;
    std::uint32_t chunkIndex = 0;
    std::uint8_t dstSlot = kAutoSlot;

    template <class Io>
    void io(Io &x) { x(fn, nsid, chunkIndex, dstSlot); }
};

/** VendorSetTierPolicy request. */
struct MiTierPolicyReq
{
    double spillMbps = 0.0;
    double promoteMbps = 0.0;
    std::uint64_t periodNs = 0; ///< 0 = manual

    template <class Io>
    void io(Io &x) { x(spillMbps, promoteMbps, periodNs); }
};

/** A storage node (VendorFailNode request). */
struct MiNode
{
    std::uint8_t node = 0;

    template <class Io>
    void io(Io &x) { x(node); }
};

/** VendorClone request. */
struct MiCloneReq
{
    std::uint32_t snapId = 0;
    std::uint8_t fn = 0;
    QosLimits qos;

    template <class Io>
    void io(Io &x) { x(snapId, fn, qos.iopsLimit, qos.mbPerSecLimit); }
};

/** A snapshot (VendorDeleteSnapshot request). */
struct MiSnapId
{
    std::uint32_t id = 0;

    template <class Io>
    void io(Io &x) { x(id); }
};
/// @}

/** @name Responses. */
/// @{
/** A namespace id (VendorCreateNamespace, VendorClone responses). */
struct MiNsid
{
    std::uint32_t nsid = 0;

    template <class Io>
    void io(Io &x) { x(nsid); }
};

/** Health of one back-end SSD slot. */
struct SlotHealth
{
    std::uint8_t slot = 0;
    bool present = false;
    bool upgrading = false;
    std::string firmwareRev;
    std::uint64_t capacityBytes = 0;
    std::uint32_t inflight = 0;

    /** @name SMART telemetry (zero when the device exposes none). */
    /// @{
    std::uint16_t temperatureK = 0;
    std::uint8_t percentageUsed = 0;
    std::uint64_t powerOnHours = 0;
    std::uint64_t mediaErrors = 0;
    /// @}

    template <class Io>
    void
    io(Io &x)
    {
        x(slot, present, upgrading, firmwareRev, capacityBytes, inflight,
          temperatureK, percentageUsed, powerOnHours, mediaErrors);
    }
};

/** HealthStatusPoll response: one entry per slot. */
struct MiHealth
{
    std::vector<SlotHealth> slots;

    template <class Io>
    void io(Io &x) { x(wire::list<std::uint8_t>(slots)); }
};

/** Per-SSD chunk occupancy (VendorDf response / ioStats tail). */
struct MiDfEntry
{
    std::uint8_t slot = 0;
    std::uint64_t totalChunks = 0;
    std::uint64_t usedChunks = 0; ///< physically allocated
    std::uint64_t freeChunks = 0;
    /** Promised (logical) chunks attributed to the slot; exceeds
     *  totalChunks when thin namespaces overcommit the capacity. */
    std::uint64_t logicalChunks = 0;
    bool quiesced = false;
    std::uint64_t chunkBytes = 0;

    template <class Io>
    void
    io(Io &x)
    {
        x(slot, totalChunks, usedChunks, freeChunks, logicalChunks,
          quiesced, chunkBytes);
    }
};

/** VendorDf response: one entry per registered slot. */
struct MiDf
{
    std::vector<MiDfEntry> slots;

    template <class Io>
    void io(Io &x) { x(wire::list<std::uint8_t>(slots)); }
};

/** One snapshot as reported by VendorSnapshot's listing tail. */
struct MiSnapInfo
{
    std::uint32_t id = 0;
    std::uint8_t srcFn = 0;
    std::uint32_t srcNsid = 1;
    std::uint64_t sizeBlocks = 0;
    std::uint32_t pinnedChunks = 0;

    template <class Io>
    void io(Io &x) { x(id, srcFn, srcNsid, sizeBlocks, pinnedChunks); }
};

/** VendorSnapshot response: the new id plus every live snapshot. */
struct MiSnapshotList
{
    std::uint32_t id = 0;
    std::vector<MiSnapInfo> snaps;

    template <class Io>
    void io(Io &x) { x(id, wire::list<std::uint16_t>(snaps)); }
};

/** Per-function I/O statistics (VendorIoStats response). */
struct MiIoStats
{
    std::uint64_t readOps = 0;
    std::uint64_t writeOps = 0;
    double readIops = 0.0;
    double writeIops = 0.0;
    double readMbps = 0.0;
    double writeMbps = 0.0;
    /** @name Multi-queue arbitration state of the function. */
    /// @{
    std::uint16_t activeSqs = 0;
    std::uint32_t maxSqBacklog = 0;
    std::uint64_t arbRounds = 0;
    std::uint64_t fetchBatches = 0;
    std::uint64_t fetchedSqes = 0;
    std::uint64_t doorbellsCoalesced = 0;
    /// @}
    /** Per-SSD occupancy appended by controllers that track it. */
    std::vector<MiDfEntry> slots;

    template <class Io>
    void
    io(Io &x)
    {
        x(readOps, writeOps, readIops, writeIops, readMbps, writeMbps,
          activeSqs, maxSqBacklog, arbRounds, fetchBatches, fetchedSqes,
          doorbellsCoalesced, wire::list<std::uint8_t>(slots));
    }
};

/** Firmware upgrade outcome (VendorFirmwareUpgrade response). */
struct MiUpgradeResult
{
    bool ok = false;
    double storeMs = 0.0;
    double firmwareMs = 0.0;
    double reloadMs = 0.0;
    double totalMs = 0.0;
    double ioPauseMs = 0.0;

    template <class Io>
    void io(Io &x) { x(ok, storeMs, firmwareMs, reloadMs, totalMs, ioPauseMs); }
};

/** Hot-plug outcome (VendorHotPlug response). */
struct MiHotPlugResult
{
    bool ok = false;
    double ioPauseMs = 0.0;
    /** @name Lossless replacement only. */
    /// @{
    std::uint32_t evacuatedChunks = 0;
    double evacMs = 0.0;
    /// @}

    template <class Io>
    void io(Io &x) { x(ok, ioPauseMs, evacuatedChunks, evacMs); }
};

/** Chunk migration outcome (VendorMigrateChunk response). */
struct MiMigrateResult
{
    bool ok = false;
    std::uint8_t dstSlot = 0;
    double elapsedMs = 0.0;
    std::uint64_t bytesCopied = 0;

    template <class Io>
    void io(Io &x) { x(ok, dstSlot, elapsedMs, bytesCopied); }
};

/** SSD evacuation outcome (VendorEvacuate response). */
struct MiEvacuateResult
{
    bool ok = false;
    std::uint32_t moved = 0;
    std::uint32_t failed = 0;
    double elapsedMs = 0.0;

    template <class Io>
    void io(Io &x) { x(ok, moved, failed, elapsedMs); }
};

/** One spilled chunk as reported by VendorTierStats. */
struct MiSpilledChunk
{
    std::uint8_t fn = 0;
    std::uint32_t nsid = 1;
    std::uint32_t chunkIndex = 0;
    std::uint8_t remoteSlot = 0, remoteChunk = 0;
    std::uint8_t shadowSlot = 0, shadowChunk = 0;
    double heatMbps = 0.0;

    template <class Io>
    void
    io(Io &x)
    {
        x(fn, nsid, chunkIndex, remoteSlot, remoteChunk, shadowSlot,
          shadowChunk, heatMbps);
    }
};

/** Tiering counters + spilled-chunk listing (VendorTierStats). */
struct MiTierStats
{
    std::uint32_t spills = 0;
    std::uint32_t promotes = 0;
    std::uint32_t failures = 0;
    std::uint32_t nodeLosses = 0;
    std::uint32_t chunksRecovered = 0;
    std::uint32_t chunksRespilled = 0;
    std::vector<MiSpilledChunk> spilled;

    template <class Io>
    void
    io(Io &x)
    {
        x(spills, promotes, failures, nodeLosses, chunksRecovered,
          chunksRespilled, wire::list<std::uint16_t>(spilled));
    }
};

/** Storage-node loss recovery outcome (VendorFailNode response). */
struct MiFailNodeResult
{
    bool ok = false;
    std::uint32_t recovered = 0;
    std::uint32_t respilled = 0;

    template <class Io>
    void io(Io &x) { x(ok, recovered, respilled); }
};

/** Lifecycle of one chunk migration. */
enum class MigrationState : std::uint8_t
{
    Queued = 0,
    Copying = 1,
    CuttingOver = 2,
    Done = 3,
    Aborted = 4,
};

/** One migration's progress (an entry of VendorMigrationStatus). */
struct MiMigrationInfo
{
    std::uint32_t id = 0;
    std::uint8_t fn = 0;
    std::uint32_t nsid = 1;
    std::uint32_t chunkIndex = 0;
    std::uint8_t srcSlot = 0, srcChunk = 0;
    std::uint8_t dstSlot = 0, dstChunk = 0;
    MigrationState state = MigrationState::Queued;
    std::uint32_t copiedSegments = 0;
    std::uint32_t totalSegments = 0;
    std::uint64_t bytesCopied = 0;

    template <class Io>
    void
    io(Io &x)
    {
        x(id, fn, nsid, chunkIndex, srcSlot, srcChunk, dstSlot, dstChunk,
          state, copiedSegments, totalSegments, bytesCopied);
    }
};

/** VendorMigrationStatus response: active, queued, then recent. */
struct MiMigrations
{
    std::vector<MiMigrationInfo> entries;

    template <class Io>
    void io(Io &x) { x(wire::list<std::uint8_t>(entries)); }
};
/// @}

} // namespace bms::core

#endif // BMS_CORE_MGMT_NVME_MI_HH
