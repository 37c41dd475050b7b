/**
 * @file
 * ZNS (Zoned Namespace) SSD model — the second device class the
 * paper's §VI-A compatibility discussion names.
 *
 * The device divides its capacity into fixed-size zones, each with a
 * write pointer: writes must land exactly at the pointer (or use
 * Zone Append, which returns the assigned LBA), zones progress
 * through Empty → Open → Full, only a bounded number may be active
 * at once, and Zone Management commands reset/open/close/finish
 * zones. Reads are unrestricted. The media timing reuses the flash
 * model; what ZNS changes is the *command-set contract*, which is
 * exactly what this model enforces.
 */

#ifndef BMS_SSD_ZNS_HH
#define BMS_SSD_ZNS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nvme/endpoint.hh"
#include "sim/simulator.hh"
#include "sim/sparse_memory.hh"
#include "ssd/media_model.hh"
#include "ssd/profile.hh"

namespace bms::ssd {

/** @name ZNS command-set opcodes (NVMe Zoned Namespace spec). */
/// @{
inline constexpr std::uint8_t kOpZoneMgmtSend = 0x79;
inline constexpr std::uint8_t kOpZoneMgmtRecv = 0x7A;
inline constexpr std::uint8_t kOpZoneAppend = 0x7D;
/// @}

/** Zone Send Actions (cdw13 [7:0]). */
enum class ZoneAction : std::uint8_t
{
    Close = 0x1,
    Finish = 0x2,
    Open = 0x3,
    Reset = 0x4,
};

/** Zone states (subset of the spec's state machine). */
enum class ZoneState : std::uint8_t
{
    Empty = 0x1,
    ImplicitlyOpen = 0x2,
    ExplicitlyOpen = 0x3,
    Closed = 0x4,
    Full = 0xE,
};

/** ZNS-specific command status values (Zoned command set). */
enum class ZnsStatus : std::uint16_t
{
    ZoneBoundaryError = 0xB8,
    ZoneIsFull = 0xB9,
    ZoneIsReadOnly = 0xBA,
    ZoneInvalidWrite = 0xBC,
    TooManyActiveZones = 0xBD,
    TooManyOpenZones = 0xBE,
};

/** Shape of a zoned namespace. */
struct ZnsProfile
{
    SsdProfile media = p4510_2tb(); ///< timing envelope
    std::uint64_t zoneBytes = sim::gib(1);
    std::uint32_t maxOpenZones = 14;
    std::uint32_t maxActiveZones = 28;
};

/** A ZNS SSD endpoint. */
class ZnsSsd : public nvme::Endpoint
{
  public:
    struct Config
    {
        ZnsProfile profile;
        bool functionalData = false;
    };

    ZnsSsd(sim::Simulator &sim, const std::string &name, Config cfg);

    /** @name Zone introspection (tests, management tooling). */
    /// @{
    std::uint64_t zoneCount() const { return _zones.size(); }
    std::uint64_t zoneBlocks() const { return _zoneBlocks; }
    ZoneState zoneState(std::uint64_t zone) const;
    /** Write pointer as an absolute LBA. */
    std::uint64_t writePointer(std::uint64_t zone) const;
    std::uint32_t openZones() const { return _openZones; }
    std::uint32_t activeZones() const { return _activeZones; }
    /// @}

    /** Pulled by hot-plug: the zones' pages go back to the store. */
    void detached() override;

    /** Stored bytes (test support). */
    const sim::SparseMemory &flash() const { return _flash; }

  protected:
    void executeIo(Handle h) override;

  private:
    struct Zone
    {
        ZoneState state = ZoneState::Empty;
        std::uint64_t wp = 0; ///< offset within the zone, in blocks
    };

    void doRead(Handle h);
    void doWrite(Handle h, bool is_append);
    void doZoneMgmtSend(Handle h);
    void doZoneMgmtRecv(Handle h);

    /** Transition helpers maintaining open/active accounting. */
    bool openZone(Zone &z, bool explicit_open);
    void closeZone(Zone &z);
    void finishZone(Zone &z);
    void resetZone(std::uint64_t zone_idx);

    void completeZns(Handle h, ZnsStatus st);

    Config _cfg;
    std::unique_ptr<MediaModel> _media;
    sim::SparseMemory _flash;

    std::uint64_t _zoneBlocks;
    std::vector<Zone> _zones;
    std::uint32_t _openZones = 0;
    std::uint32_t _activeZones = 0;
};

} // namespace bms::ssd

#endif // BMS_SSD_ZNS_HH
