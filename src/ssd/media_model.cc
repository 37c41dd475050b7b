#include "ssd/media_model.hh"

#include <utility>

namespace bms::ssd {

MediaModel::MediaModel(sim::Simulator &sim, std::string name,
                       const SsdProfile &profile)
    : SimObject(sim, std::move(name)), _profile(profile)
{
}

sim::Tick
MediaModel::jitter(sim::Tick base)
{
    double j = _profile.latencyJitter;
    if (j <= 0.0)
        return base;
    double f = sim().rng().uniformDouble(1.0 - j, 1.0 + j);
    return static_cast<sim::Tick>(static_cast<double>(base) * f);
}

sim::Tick
MediaModel::sampleReadLatency()
{
    sim::Tick lat = jitter(_profile.readLatency);
    if (_profile.outlierProb > 0.0 &&
        sim().rng().chance(_profile.outlierProb)) {
        lat = static_cast<sim::Tick>(static_cast<double>(lat) *
                                     _profile.outlierFactor);
    }
    return lat;
}

void
MediaModel::read(std::uint64_t offset, std::uint64_t bytes,
                 std::function<void()> done)
{
    (void)offset;
    const Handle h = _reads.open();
    _reads[h] = {bytes, std::move(done)};
    if (_busyUnits < _profile.readUnits)
        startRead(h);
    else
        _readQueue.push_back(h);
}

void
MediaModel::startRead(Handle h)
{
    ++_busyUnits;
    sim::Tick media = sampleReadLatency();
    schedule(media, [this, h] {
        releaseUnit();
        // Data crosses the shared internal channel after the NAND
        // access; back-to-back transfers serialize.
        sim::Tick start =
            now() > _readChannelBusy ? now() : _readChannelBusy;
        _readChannelBusy =
            start + _profile.readChannelBw.delayFor(_reads[h].bytes);
        sim().scheduleAt(_readChannelBusy, std::move(_reads[h].done));
        _reads.free(h);
    });
}

void
MediaModel::releaseUnit()
{
    --_busyUnits;
    if (!_readQueue.empty()) {
        const Handle next = _readQueue.front();
        _readQueue.pop_front();
        startRead(next);
    }
}

void
MediaModel::write(std::uint64_t offset, std::uint64_t bytes,
                  std::function<void()> done)
{
    (void)offset;
    // Cache accept throttled by the drain channel: the busy-until
    // arithmetic enforces the sustained write bandwidth while keeping
    // the low-queue-depth latency at writeLatency.
    sim::Tick start = now() > _writeChannelBusy ? now() : _writeChannelBusy;
    _writeChannelBusy = start + _profile.writeChannelBw.delayFor(bytes);
    sim::Tick ack = _writeChannelBusy + jitter(_profile.writeLatency);
    sim().scheduleAt(ack, std::move(done));
}

void
MediaModel::flush(std::function<void()> done)
{
    sim::Tick t = now() > _writeChannelBusy ? now() : _writeChannelBusy;
    sim().scheduleAt(t + _profile.flushLatency, std::move(done));
}

} // namespace bms::ssd
