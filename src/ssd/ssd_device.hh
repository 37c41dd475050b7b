/**
 * @file
 * NVMe SSD device model.
 *
 * An nvme::Endpoint (one PCIe function, one NVMe controller) with a
 * single namespace spanning the device capacity, a calibrated media
 * timing model, optional functional data storage, and a firmware slot
 * that supports download/commit with a realistic multi-second
 * activation stall (the raw material of the paper's hot-upgrade
 * evaluation).
 *
 * The same object attaches either to a host RootPort (native
 * baseline) or to a BMS-Engine host-adaptor port (BM-Store testbed):
 * it only ever talks to a pcie::PcieUpstreamIf.
 */

#ifndef BMS_SSD_SSD_DEVICE_HH
#define BMS_SSD_SSD_DEVICE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "nvme/endpoint.hh"
#include "sim/simulator.hh"
#include "sim/sparse_memory.hh"
#include "ssd/hdd_model.hh"
#include "ssd/media_model.hh"
#include "ssd/profile.hh"

namespace bms::ssd {

/**
 * Fault-injection knobs (failure testing; all zero in normal
 * operation). Runtime-mutable through SsdDevice::faults() so torture
 * harnesses can open and close fault windows mid-run.
 */
struct FaultConfig
{
    /** Probability a read hits an unrecoverable media error. */
    double readErrorRate = 0.0;
    /**
     * Probability a write fails with a media error. An injected
     * write failure never reaches the functional data store: the
     * previously stored bytes survive (clean-failure model, which is
     * what lets the data-integrity oracle keep an exact shadow map).
     */
    double writeErrorRate = 0.0;
    /** Probability an I/O command suffers an internal latency spike
     *  (GC stall / retry storm) before being processed. */
    double latencySpikeRate = 0.0;
    /** Duration of one injected latency spike. */
    sim::Tick latencySpikeDelay = sim::milliseconds(2);
};

/**
 * A complete back-end storage endpoint. By default an NVMe SSD; with
 * `hddProfile` set it models a SATA HDD served through the adaptor's
 * SATA personality (§VI-A) — same command interface, spinning-disk
 * media timing.
 */
class SsdDevice : public nvme::Endpoint
{
  public:
    struct Config
    {
        SsdProfile profile = p4510_2tb();
        /** When set, the device is a SATA HDD (overrides `profile`'s
         *  media timing, capacity, model and firmware strings). */
        std::optional<HddProfile> hddProfile;
        /** Store real data bytes (integrity tests); off for benches. */
        bool functionalData = false;
        /** Initial fault-injection knobs. */
        FaultConfig faults;
    };

    SsdDevice(sim::Simulator &sim, const std::string &name, Config cfg);

    const SsdProfile &profile() const { return _cfg.profile; }
    StorageMediaIf &media() { return *_media; }
    bool isHdd() const { return _cfg.hddProfile.has_value(); }

    /** Current firmware revision string. */
    const std::string &firmwareRev() const;

    /** Number of completed firmware activations. */
    std::uint32_t firmwareActivations() const { return _fwActivations; }

    /** True while a firmware activation stall is in progress. */
    bool upgrading() const { return _upgrading; }

    /** Injected unrecoverable read/write errors reported so far. */
    std::uint64_t mediaErrors() const { return _mediaErrors; }

    /** Injected latency spikes taken so far. */
    std::uint64_t latencySpikes() const { return _latencySpikes; }

    /** Live fault-injection knobs (mutable mid-run). */
    FaultConfig &faults() { return _cfg.faults; }
    const FaultConfig &faults() const { return _cfg.faults; }

    /** @name SMART attributes (NVMe-MI health telemetry). */
    /// @{
    /**
     * Composite temperature in Kelvin: idle floor plus a term driven
     * by recent I/O intensity (bytes moved per unit time).
     */
    std::uint16_t smartTemperatureK() const;

    /** Media wear: percentage of rated write endurance consumed. */
    std::uint8_t smartPercentageUsed() const;

    /** Power-on hours (simulated time). */
    std::uint64_t smartPowerOnHours() const
    {
        return now() / sim::seconds(3600);
    }
    /// @}

    /**
     * Power-cycle the device (hot-plug replacement): controller
     * disabled, contents dropped when @p wipe_data.
     */
    void hardReset(bool wipe_data);

    /** Pulled by hot-plug: the flash pages go back to the store. */
    void detached() override;

    /** Direct access to stored bytes (test support). */
    sim::SparseMemory &flash() { return _flash; }

  protected:
    void executeIo(Handle h) override;
    void executeAdmin(Handle h) override;

  private:
    void dispatchIo(Handle h);
    void doReadWrite(Handle h, bool write);
    void doWriteZeroes(Handle h);

    Config _cfg;
    std::unique_ptr<StorageMediaIf> _media;

    sim::SparseMemory _flash;

    // Firmware state.
    std::string _fwRev;
    std::uint32_t _fwActivations = 0;
    bool _upgrading = false;
    std::uint64_t _mediaErrors = 0;
    std::uint64_t _latencySpikes = 0;
};

} // namespace bms::ssd

#endif // BMS_SSD_SSD_DEVICE_HH
