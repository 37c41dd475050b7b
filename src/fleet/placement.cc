/**
 * @file
 * Placement half of the FleetManager: `df`-driven headroom scoring
 * with anti-affinity, thin-overcommit and QoS-budget filters.
 */

#include "fleet/fleet_manager.hh"

#include "sim/check.hh"

namespace bms::fleet {

std::vector<FleetManager::DfSnapshot>
FleetManager::queryDfAll()
{
    // Issue every card's `df` before pumping once: each card has its
    // own MCTP channel, so the queries overlap instead of serialising
    // N console round-trips per admission.
    std::vector<DfSnapshot> out(static_cast<std::size_t>(cards()));
    int pending = cards();
    for (int c = 0; c < cards(); ++c) {
        DfSnapshot *snap = &out[static_cast<std::size_t>(c)];
        card(c).console().df(
            ctrlEid(c),
            [snap, &pending](std::vector<core::MiDfEntry> df) {
                for (const core::MiDfEntry &e : df) {
                    snap->totalChunks += e.totalChunks;
                    snap->freeChunks += e.freeChunks;
                    snap->logicalChunks += e.logicalChunks;
                    snap->anyQuiesced = snap->anyQuiesced || e.quiesced;
                }
                snap->valid = true;
                --pending;
            });
    }
    pumpUntil([&pending] { return pending == 0; });
    return out;
}

int
FleetManager::pickCard(const TenantRequest &req,
                       const std::vector<DfSnapshot> &df,
                       std::string &why)
{
    std::uint64_t chunks =
        (req.bytes + _cfg.chunkBytes - 1) / _cfg.chunkBytes;
    double req_iops = qosLimitsFor(req.qos).iopsLimit;

    int best = -1;
    std::uint64_t best_score = 0;
    // Track the dominant refusal so an admission failure names the
    // binding constraint, not just "no".
    int fn_full = 0, affinity = 0, capacity = 0, overcommit = 0;
    int qos_full = 0, quiesced = 0;

    for (int c = 0; c < cards(); ++c) {
        const DfSnapshot &d = df[static_cast<std::size_t>(c)];
        const CardState &st = _cardState[static_cast<std::size_t>(c)];
        if (!d.valid || d.anyQuiesced) {
            // A quiesced slot means the card is mid-replacement; the
            // operator routes new business around it.
            ++quiesced;
            continue;
        }
        if (st.nextFn >= _cfg.maxTenantsPerCard) {
            ++fn_full;
            continue;
        }
        if (st.committedIops + req_iops > _cfg.cardIopsBudget) {
            ++qos_full;
            continue;
        }
        bool conflict = false;
        if (req.antiAffinityGroup >= 0) {
            for (const TenantRecord &t : _tenants) {
                if (t.card == c &&
                    t.antiAffinityGroup == req.antiAffinityGroup) {
                    conflict = true;
                    break;
                }
            }
        }
        if (conflict) {
            ++affinity;
            continue;
        }
        // Thick tenants reserve physical chunks now; thin tenants
        // only promise them, bounded by the overcommit cap. Both
        // count toward the logical (promised) load.
        if (!req.thin && d.freeChunks < chunks) {
            ++capacity;
            continue;
        }
        double cap_chunks =
            _cfg.overcommitCap * static_cast<double>(d.totalChunks);
        if (static_cast<double>(d.logicalChunks + chunks) > cap_chunks) {
            ++overcommit;
            continue;
        }
        // Headroom score: physical free chunks for thick requests,
        // remaining promise budget for thin ones. Ties break toward
        // the lowest card index — deterministic either way.
        std::uint64_t score =
            req.thin ? static_cast<std::uint64_t>(cap_chunks) -
                           d.logicalChunks
                     : d.freeChunks;
        if (best < 0 || score > best_score) {
            best = c;
            best_score = score;
        }
    }

    if (best < 0) {
        why = "no card admits the request (quiesced=" +
              std::to_string(quiesced) +
              " fn-budget=" + std::to_string(fn_full) +
              " qos-budget=" + std::to_string(qos_full) +
              " anti-affinity=" + std::to_string(affinity) +
              " capacity=" + std::to_string(capacity) +
              " overcommit=" + std::to_string(overcommit) + ")";
    }
    return best;
}

} // namespace bms::fleet
