/**
 * @file
 * SSD media timing model: parallel read units feeding a shared read
 * channel, and a write-back cache drained by a shared write channel.
 *
 * The model is deliberately simple — two shared serialization channels
 * plus a bounded read-unit pool — because those three resources are
 * exactly what shape the six fio cases of the paper's Table IV (see
 * ssd/profile.hh for the calibration math).
 */

#ifndef BMS_SSD_MEDIA_MODEL_HH
#define BMS_SSD_MEDIA_MODEL_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/simulator.hh"
#include "ssd/profile.hh"

namespace bms::ssd {

/**
 * Timing interface of a storage medium. Completion callbacks fire
 * when the media work for an operation is done (data is then ready
 * for DMA to the host / was absorbed from the host). @p offset lets
 * position-sensitive media (spinning disks) model seeks; flash
 * ignores it.
 */
class StorageMediaIf
{
  public:
    virtual ~StorageMediaIf() = default;

    /** Start a media read; @p done fires when the data is ready. */
    virtual void read(std::uint64_t offset, std::uint64_t bytes,
                      std::function<void()> done) = 0;

    /** Start a media write; @p done fires on acknowledgment. */
    virtual void write(std::uint64_t offset, std::uint64_t bytes,
                       std::function<void()> done) = 0;

    /** Flush volatile write state. */
    virtual void flush(std::function<void()> done) = 0;
};

/**
 * Flash (NVMe SSD) medium: parallel read units feeding a shared read
 * channel, and a write-back cache drained by a shared write channel.
 */
class MediaModel : public sim::SimObject, public StorageMediaIf
{
  public:
    MediaModel(sim::Simulator &sim, std::string name,
               const SsdProfile &profile);

    /**
     * Start a media read of @p bytes; @p done fires when the data has
     * crossed the internal read channel. Flash is position-agnostic:
     * @p offset is ignored.
     */
    void read(std::uint64_t offset, std::uint64_t bytes,
              std::function<void()> done) override;

    /**
     * Start a media write of @p bytes; @p done fires when the write
     * is acknowledged (cache accept, throttled by drain bandwidth).
     */
    void write(std::uint64_t offset, std::uint64_t bytes,
               std::function<void()> done) override;

    /** Flush: @p done fires when the write channel has drained. */
    void flush(std::function<void()> done) override;

    const SsdProfile &profile() const { return _profile; }

    /** Reads currently holding or waiting for a read unit. */
    std::uint32_t pendingReads() const { return _busyUnits + queuedReads(); }
    std::uint32_t queuedReads() const
    {
        return static_cast<std::uint32_t>(_readQueue.size());
    }

  private:
    /** A read, from its request until its NAND step hands its done
     *  to the read channel. */
    struct PendingRead
    {
        std::uint64_t bytes = 0;
        std::function<void()> done;
    };
    using Handle = sim::RecordPool<PendingRead>::Handle;

    void startRead(Handle h);
    void releaseUnit();
    sim::Tick sampleReadLatency();
    sim::Tick jitter(sim::Tick base);

    SsdProfile _profile;
    int _busyUnits = 0;
    sim::RecordPool<PendingRead> _reads{sim()};
    /** Reads waiting for a read unit, oldest first. */
    std::deque<Handle> _readQueue;
    sim::Tick _readChannelBusy = 0;
    sim::Tick _writeChannelBusy = 0;
};

} // namespace bms::ssd

#endif // BMS_SSD_MEDIA_MODEL_HH
