#include "fleet/fleet_manager.hh"

#include <utility>

#include "nvme/defs.hh"
#include "sim/check.hh"

namespace bms::fleet {

core::QosLimits
qosLimitsFor(QosClass cls)
{
    core::QosLimits q;
    switch (cls) {
      case QosClass::Gold:
        q.iopsLimit = 200'000.0;
        break;
      case QosClass::Silver:
        q.iopsLimit = 100'000.0;
        break;
      case QosClass::Bronze:
        q.iopsLimit = 50'000.0;
        break;
    }
    return q;
}

FleetManager::FleetManager(const FleetConfig &cfg) : _cfg(cfg)
{
    BMS_ASSERT(_cfg.cards >= 1, "a fleet needs cards: ", _cfg.cards);
    BMS_ASSERT(_cfg.ssdsPerCard >= 1 && _cfg.ssdsPerCard <= 4,
               "cards have 4 back-end slots: ", _cfg.ssdsPerCard);
    BMS_ASSERT(_cfg.overcommitCap >= 1.0,
               "overcommit cap below 1.0 would refuse thick capacity");
    _sim = std::make_unique<sim::Simulator>(_cfg.seed);

    for (int c = 0; c < _cfg.cards; ++c) {
        harness::TestbedConfig tb;
        tb.sharedSim = _sim.get();
        tb.namePrefix = "card" + std::to_string(c) + ".";
        tb.ssdCount = _cfg.ssdsPerCard;
        tb.ssd.functionalData = true;
        tb.ssd.profile.capacityBytes = _cfg.ssdCapacityBytes;
        tb.ssd.profile.fwActivateMin = _cfg.fwActivateMin;
        tb.ssd.profile.fwActivateMax = _cfg.fwActivateMax;
        tb.chunkBytes = _cfg.chunkBytes;
        tb.ioQueues = _cfg.ioQueues;
        tb.queueDepth = _cfg.queueDepth;
        if (_cfg.remoteNodesPerCard > 0) {
            tb.remoteNodes = _cfg.remoteNodesPerCard;
            tb.volumesPerNode = 1;
            tb.remoteVolumeBytes = _cfg.ssdCapacityBytes / 4;
            tb.remoteServer.ssd.functionalData = true;
        }
        auto bed = std::make_unique<harness::BmStoreTestbed>(tb);
        // Lossless replacement needs somewhere to pull spares from.
        bed->enableSpareDisks();
        _cards.push_back(std::move(bed));
        _cardState.push_back(CardState{});
    }
    record("fleet up: cards=" + std::to_string(_cfg.cards) +
           " ssds/card=" + std::to_string(_cfg.ssdsPerCard));
}

FleetManager::~FleetManager() = default;

int
FleetManager::tenantsOn(int card) const
{
    int n = 0;
    for (const TenantRecord &t : _tenants)
        n += t.card == card ? 1 : 0;
    return n;
}

void
FleetManager::record(const std::string &what)
{
    _trace.push_back("t=" + std::to_string(_sim->now()) + " " + what);
}

std::uint64_t
FleetManager::traceHash() const
{
    // FNV-1a over every trace line, newline-delimited.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string &line : _trace) {
        for (char ch : line) {
            h ^= static_cast<std::uint8_t>(ch);
            h *= 0x100000001b3ULL;
        }
        h ^= static_cast<std::uint8_t>('\n');
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
FleetManager::pumpUntil(const std::function<bool()> &done,
                        sim::Tick timeout)
{
    sim::Tick deadline = _sim->now() + timeout;
    while (!done()) {
        BMS_ASSERT_LT(_sim->now(), deadline,
                      "fleet operation timed out");
        _sim->runUntil(_sim->now() + sim::microseconds(200));
    }
}

core::Eid
FleetManager::ctrlEid(int card)
{
    return this->card(card).controller().endpoint().eid();
}

Placement
FleetManager::admit(const TenantRequest &req)
{
    Placement out;
    BMS_ASSERT(req.bytes > 0, "admission request without capacity");

    // One fresh `df` snapshot per card — placement always reads the
    // operator API, never the card's internals. The queries ride
    // every card's own MCTP channel concurrently.
    std::vector<DfSnapshot> df = queryDfAll();

    std::string why;
    int best = pickCard(req, df, why);
    if (best < 0) {
        out.reason = why;
        record("admit REFUSED: " + why);
        return out;
    }

    CardState &st = _cardState[static_cast<std::size_t>(best)];
    auto fn = static_cast<std::uint8_t>(st.nextFn);
    core::MgmtConsole &console = card(best).console();

    bool done = false;
    std::optional<std::uint32_t> nsid;
    console.createNamespace(ctrlEid(best), fn, req.bytes, 0,
                            qosLimitsFor(req.qos),
                            [&done, &nsid](std::optional<std::uint32_t> id) {
                                nsid = id;
                                done = true;
                            },
                            req.thin);
    pumpUntil([&done] { return done; });
    if (!nsid) {
        // df said yes but the card said no (e.g. an admission raced a
        // CoW allocation): a legal refusal, surfaced as one.
        out.reason = "card " + std::to_string(best) +
                     " refused the namespace";
        record("admit REFUSED: " + out.reason);
        return out;
    }

    host::NvmeDriver &drv = card(best).attachDriver(fn, *nsid);

    std::uint64_t chunks =
        (req.bytes + _cfg.chunkBytes - 1) / _cfg.chunkBytes;
    st.nextFn += 1;
    st.logicalChunks += chunks;
    st.committedIops += qosLimitsFor(req.qos).iopsLimit;

    TenantRecord rec;
    rec.card = best;
    rec.fn = fn;
    rec.nsid = *nsid;
    rec.antiAffinityGroup = req.antiAffinityGroup;
    rec.thin = req.thin;
    rec.chunks = chunks;
    rec.driver = &drv;
    _tenants.push_back(rec);
    ++_tenantCount;

    out.ok = true;
    out.card = best;
    out.fn = fn;
    out.nsid = *nsid;
    out.freeChunksAtAdmit =
        df[static_cast<std::size_t>(best)].freeChunks;
    record("admit card=" + std::to_string(best) +
           " fn=" + std::to_string(fn) +
           " nsid=" + std::to_string(*nsid) +
           " chunks=" + std::to_string(chunks) +
           (req.thin ? " thin" : " thick") +
           " group=" + std::to_string(req.antiAffinityGroup));
    return out;
}

host::NvmeDriver &
FleetManager::tenantDriver(int card, std::uint8_t fn)
{
    for (const TenantRecord &t : _tenants) {
        if (t.card == card && t.fn == fn) {
            BMS_ASSERT(t.driver, "tenant without driver");
            return *t.driver;
        }
    }
    BMS_PANIC("no tenant fn=", fn, " on card ", card);
}

} // namespace bms::fleet
