#include "core/mgmt/mgmt_console.hh"

#include <utility>

namespace bms::core {

MgmtConsole::MgmtConsole(sim::Simulator &sim, std::string name, Eid eid)
    : SimObject(sim, name)
{
    _endpoint = std::make_unique<MctpEndpoint>(sim, name + ".mctp", eid);
    _endpoint->setHandler(
        [this](Eid src, MctpMsgType type, std::vector<std::uint8_t> raw) {
            onMessage(src, type, std::move(raw));
        });
}

void
MgmtConsole::onMessage(Eid src, MctpMsgType type,
                       std::vector<std::uint8_t> raw)
{
    (void)src;
    if (type != MctpMsgType::NvmeMi)
        return;
    MiMessage resp;
    if (!MiMessage::parse(raw, resp) ||
        resp.kind != MiMessage::Kind::Response) {
        logWarn("malformed NVMe-MI response");
        return;
    }
    auto it = _pending.find(resp.tag);
    if (it == _pending.end()) {
        logWarn("NVMe-MI response with unknown tag ", resp.tag);
        return;
    }
    RawHandler handler = std::move(it->second);
    _pending.erase(it);
    handler(resp);
}

namespace {

/** @p v when @p status is Success and the payload decoded whole. */
template <class T>
std::optional<T>
valueIf(MiStatus status, bool decoded, T v)
{
    if (status != MiStatus::Success || !decoded)
        return std::nullopt;
    return v;
}

} // namespace

template <class Resp, class Req, class Cb>
void
MgmtConsole::call(Eid ctrl, MiOpcode op, const Req &req, Cb cb)
{
    MiMessage msg;
    msg.opcode = op;
    msg.tag = _nextTag++;
    msg.payload = wire::encode(req);
    _pending[msg.tag] = [cb = std::move(cb)](const MiMessage &resp) {
        Resp out;
        bool decoded = wire::decode(resp.payload, out);
        cb(resp.status, decoded, std::move(out));
    };
    ++_requests;
    _endpoint->sendMessage(ctrl, MctpMsgType::NvmeMi, msg.serialize());
}

template <class Req>
void
MgmtConsole::callOk(Eid ctrl, MiOpcode op, const Req &req,
                    std::function<void(bool)> cb)
{
    call<MiEmpty>(ctrl, op, req,
                  [cb = std::move(cb)](MiStatus status, bool, MiEmpty) {
                      cb(status == MiStatus::Success);
                  });
}

template <class Result, class Req>
void
MgmtConsole::callResult(Eid ctrl, MiOpcode op, const Req &req,
                        std::function<void(Result)> cb)
{
    call<Result>(ctrl, op, req,
                 [cb = std::move(cb)](MiStatus status, bool, Result res) {
                     res.ok = res.ok && status == MiStatus::Success;
                     cb(res);
                 });
}

void
MgmtConsole::healthPoll(Eid ctrl,
                        std::function<void(std::vector<SlotHealth>)> cb)
{
    call<MiHealth>(ctrl, MiOpcode::HealthStatusPoll, MiEmpty{},
                   [cb = std::move(cb)](MiStatus, bool, MiHealth h) {
                       cb(std::move(h.slots));
                   });
}

void
MgmtConsole::createNamespace(
    Eid ctrl, std::uint8_t fn, std::uint64_t bytes, std::uint8_t policy,
    QosLimits qos,
    std::function<void(std::optional<std::uint32_t>)> cb, bool thin)
{
    call<MiNsid>(ctrl, MiOpcode::VendorCreateNamespace,
                 MiCreateNamespaceReq{fn, bytes, policy, qos, thin},
                 [cb = std::move(cb)](MiStatus st, bool decoded, MiNsid r) {
                     cb(valueIf(st, decoded, r.nsid));
                 });
}

void
MgmtConsole::snapshot(Eid ctrl, std::uint8_t fn, std::uint32_t nsid,
                      std::function<void(std::optional<std::uint32_t>,
                                         std::vector<MiSnapInfo>)>
                          cb)
{
    call<MiSnapshotList>(
        ctrl, MiOpcode::VendorSnapshot, MiNsRef{fn, nsid},
        [cb = std::move(cb)](MiStatus st, bool decoded, MiSnapshotList r) {
            if (st == MiStatus::Success && decoded)
                cb(r.id, std::move(r.snaps));
            else
                cb(std::nullopt, {});
        });
}

void
MgmtConsole::clone(Eid ctrl, std::uint32_t snap_id, std::uint8_t fn,
                   QosLimits qos,
                   std::function<void(std::optional<std::uint32_t>)> cb)
{
    call<MiNsid>(ctrl, MiOpcode::VendorClone, MiCloneReq{snap_id, fn, qos},
                 [cb = std::move(cb)](MiStatus st, bool decoded, MiNsid r) {
                     cb(valueIf(st, decoded, r.nsid));
                 });
}

void
MgmtConsole::deleteSnapshot(Eid ctrl, std::uint32_t snap_id,
                            std::function<void(bool)> cb)
{
    callOk(ctrl, MiOpcode::VendorDeleteSnapshot, MiSnapId{snap_id},
           std::move(cb));
}

void
MgmtConsole::destroyNamespace(Eid ctrl, std::uint8_t fn,
                              std::uint32_t nsid,
                              std::function<void(bool)> cb)
{
    callOk(ctrl, MiOpcode::VendorDestroyNamespace, MiNsRef{fn, nsid},
           std::move(cb));
}

void
MgmtConsole::setQos(Eid ctrl, std::uint8_t fn, std::uint32_t nsid,
                    QosLimits qos, std::function<void(bool)> cb)
{
    callOk(ctrl, MiOpcode::VendorSetQos, MiSetQosReq{fn, nsid, qos},
           std::move(cb));
}

void
MgmtConsole::ioStats(Eid ctrl, std::uint8_t fn,
                     std::function<void(std::optional<MiIoStats>)> cb)
{
    call<MiIoStats>(
        ctrl, MiOpcode::VendorIoStats, MiFn{fn},
        [cb = std::move(cb)](MiStatus st, bool decoded, MiIoStats s) {
            cb(valueIf(st, decoded, std::move(s)));
        });
}

void
MgmtConsole::firmwareUpgrade(Eid ctrl, std::uint8_t slot,
                             std::uint32_t image_bytes,
                             std::function<void(MiUpgradeResult)> cb)
{
    callResult(ctrl, MiOpcode::VendorFirmwareUpgrade,
               MiUpgradeReq{slot, image_bytes}, std::move(cb));
}

void
MgmtConsole::hotPlug(Eid ctrl, std::uint8_t slot,
                     std::function<void(MiHotPlugResult)> cb,
                     bool lossless)
{
    callResult(ctrl, MiOpcode::VendorHotPlug, MiHotPlugReq{slot, lossless},
               std::move(cb));
}

void
MgmtConsole::migrateChunk(Eid ctrl, std::uint8_t fn, std::uint32_t nsid,
                          std::uint32_t chunk_index, std::uint8_t dst_slot,
                          std::function<void(MiMigrateResult)> cb)
{
    callResult(ctrl, MiOpcode::VendorMigrateChunk,
               MiMigrateReq{fn, nsid, chunk_index, dst_slot}, std::move(cb));
}

void
MgmtConsole::evacuate(Eid ctrl, std::uint8_t slot,
                      std::function<void(MiEvacuateResult)> cb)
{
    callResult(ctrl, MiOpcode::VendorEvacuate, MiSlot{slot}, std::move(cb));
}

void
MgmtConsole::migrations(
    Eid ctrl, std::function<void(std::vector<MiMigrationInfo>)> cb)
{
    call<MiMigrations>(ctrl, MiOpcode::VendorMigrationStatus, MiEmpty{},
                       [cb = std::move(cb)](MiStatus, bool, MiMigrations m) {
                           cb(std::move(m.entries));
                       });
}

void
MgmtConsole::df(Eid ctrl, std::function<void(std::vector<MiDfEntry>)> cb)
{
    call<MiDf>(ctrl, MiOpcode::VendorDf, MiEmpty{},
               [cb = std::move(cb)](MiStatus, bool, MiDf d) {
                   cb(std::move(d.slots));
               });
}

void
MgmtConsole::tierStats(Eid ctrl,
                       std::function<void(std::optional<MiTierStats>)> cb)
{
    call<MiTierStats>(
        ctrl, MiOpcode::VendorTierStats, MiEmpty{},
        [cb = std::move(cb)](MiStatus st, bool decoded, MiTierStats s) {
            cb(valueIf(st, decoded, std::move(s)));
        });
}

void
MgmtConsole::setTierPolicy(Eid ctrl, double spill_mbps,
                           double promote_mbps, std::uint64_t period_ns,
                           std::function<void(bool)> cb)
{
    callOk(ctrl, MiOpcode::VendorSetTierPolicy,
           MiTierPolicyReq{spill_mbps, promote_mbps, period_ns},
           std::move(cb));
}

void
MgmtConsole::failNode(Eid ctrl, std::uint8_t node,
                      std::function<void(MiFailNodeResult)> cb)
{
    callResult(ctrl, MiOpcode::VendorFailNode, MiNode{node}, std::move(cb));
}

} // namespace bms::core
