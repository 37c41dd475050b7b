/**
 * @file
 * Remote management console — the cloud operator's side of the
 * out-of-band path. Sends NVMe-MI requests over MCTP to a
 * BMS-Controller endpoint and delivers typed responses to callbacks.
 * Everything here runs without any host-OS involvement, which is the
 * manageability story of the paper.
 */

#ifndef BMS_CORE_MGMT_MGMT_CONSOLE_HH
#define BMS_CORE_MGMT_MGMT_CONSOLE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/engine/qos.hh"
#include "core/mgmt/mctp.hh"
#include "core/mgmt/nvme_mi.hh"
#include "sim/simulator.hh"

namespace bms::core {

/** Remote MCTP console with a typed NVMe-MI client API. */
class MgmtConsole : public sim::SimObject
{
  public:
    MgmtConsole(sim::Simulator &sim, std::string name, Eid eid = 0x08);

    MctpEndpoint &endpoint() { return *_endpoint; }

    /** @name Typed management operations (async). */
    /// @{
    void healthPoll(Eid ctrl,
                    std::function<void(std::vector<SlotHealth>)> cb);

    /** @p thin promises @p bytes without reserving chunks (thin
     *  provisioning; backing allocates on first write). */
    void createNamespace(Eid ctrl, std::uint8_t fn, std::uint64_t bytes,
                         std::uint8_t policy, QosLimits qos,
                         std::function<void(std::optional<std::uint32_t>)>
                             cb,
                         bool thin = false);

    /** Pin (fn, nsid)'s current content as a chunk-CoW snapshot.
     *  Returns the snapshot id plus the full snapshot listing. */
    void snapshot(Eid ctrl, std::uint8_t fn, std::uint32_t nsid,
                  std::function<void(std::optional<std::uint32_t>,
                                     std::vector<MiSnapInfo>)>
                      cb);

    /** Materialise a writable thin namespace on @p fn from a
     *  snapshot (no data copied; diverges chunk-by-chunk via CoW). */
    void clone(Eid ctrl, std::uint32_t snap_id, std::uint8_t fn,
               QosLimits qos,
               std::function<void(std::optional<std::uint32_t>)> cb);

    /** Drop a snapshot's chunk pins. */
    void deleteSnapshot(Eid ctrl, std::uint32_t snap_id,
                        std::function<void(bool)> cb);

    void destroyNamespace(Eid ctrl, std::uint8_t fn, std::uint32_t nsid,
                          std::function<void(bool)> cb);

    void setQos(Eid ctrl, std::uint8_t fn, std::uint32_t nsid,
                QosLimits qos, std::function<void(bool)> cb);

    void ioStats(Eid ctrl, std::uint8_t fn,
                 std::function<void(std::optional<MiIoStats>)> cb);

    void firmwareUpgrade(Eid ctrl, std::uint8_t slot,
                         std::uint32_t image_bytes,
                         std::function<void(MiUpgradeResult)> cb);

    /** @p lossless drains the slot via migration before the swap. */
    void hotPlug(Eid ctrl, std::uint8_t slot,
                 std::function<void(MiHotPlugResult)> cb,
                 bool lossless = false);

    /** Migrate one namespace chunk; dst_slot 0xFF = auto-pick. */
    void migrateChunk(Eid ctrl, std::uint8_t fn, std::uint32_t nsid,
                      std::uint32_t chunk_index, std::uint8_t dst_slot,
                      std::function<void(MiMigrateResult)> cb);

    /** Drain every chunk off @p slot onto the other SSDs. */
    void evacuate(Eid ctrl, std::uint8_t slot,
                  std::function<void(MiEvacuateResult)> cb);

    /** Active + queued + recent migrations. */
    void migrations(Eid ctrl,
                    std::function<void(std::vector<MiMigrationInfo>)> cb);

    /** Per-SSD chunk occupancy. */
    void df(Eid ctrl, std::function<void(std::vector<MiDfEntry>)> cb);

    /** Tiering counters + spilled-chunk listing with current heat. */
    void tierStats(Eid ctrl,
                   std::function<void(std::optional<MiTierStats>)> cb);

    /**
     * Re-program the tiering policy: spill/promote thresholds (MB/s)
     * and the automatic-policy period (ns; 0 = manual).
     */
    void setTierPolicy(Eid ctrl, double spill_mbps, double promote_mbps,
                       std::uint64_t period_ns,
                       std::function<void(bool)> cb);

    /**
     * Declare storage node @p node dead and recover every chunk it
     * held onto the local shadows (then re-spill).
     */
    void failNode(Eid ctrl, std::uint8_t node,
                  std::function<void(MiFailNodeResult)> cb);
    /// @}

    std::uint64_t requestsSent() const { return _requests; }

  private:
    using RawHandler = std::function<void(const MiMessage &)>;

    /**
     * Send @p req; @p cb gets the response status, whether the payload
     * decoded whole, and the decoded @p Resp.
     */
    template <class Resp, class Req, class Cb>
    void call(Eid ctrl, MiOpcode op, const Req &req, Cb cb);

    /** A verb answered by its status alone. */
    template <class Req>
    void callOk(Eid ctrl, MiOpcode op, const Req &req,
                std::function<void(bool)> cb);

    /** An outcome record: its `ok` also needs a Success status. */
    template <class Result, class Req>
    void callResult(Eid ctrl, MiOpcode op, const Req &req,
                    std::function<void(Result)> cb);

    void onMessage(Eid src, MctpMsgType type,
                   std::vector<std::uint8_t> raw);

    std::unique_ptr<MctpEndpoint> _endpoint;
    std::unordered_map<std::uint16_t, RawHandler> _pending;
    std::uint16_t _nextTag = 1;
    std::uint64_t _requests = 0;
};

} // namespace bms::core

#endif // BMS_CORE_MGMT_MGMT_CONSOLE_HH
