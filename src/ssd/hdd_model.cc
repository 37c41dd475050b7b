#include "ssd/hdd_model.hh"

#include <cmath>
#include <utility>

namespace bms::ssd {

HddMediaModel::HddMediaModel(sim::Simulator &sim, std::string name,
                             const HddProfile &profile)
    : SimObject(sim, std::move(name)), _profile(profile)
{
}

sim::Tick
HddMediaModel::positionCost(std::uint64_t offset)
{
    if (offset == _headPos) {
        ++_seqHits;
        return 0; // streaming: head already positioned
    }
    ++_seeks;
    // Seek time grows with the square root of the stroke distance
    // (classic disk model), plus rotational latency sampled uniform
    // over one revolution.
    double dist = offset > _headPos
                      ? static_cast<double>(offset - _headPos)
                      : static_cast<double>(_headPos - offset);
    double frac = std::sqrt(dist / static_cast<double>(
                                       _profile.capacityBytes));
    auto seek = static_cast<sim::Tick>(
        static_cast<double>(_profile.seekMin) +
        frac * static_cast<double>(_profile.seekMax - _profile.seekMin));
    sim::Tick rotation = static_cast<sim::Tick>(
        sim().rng().uniformDouble(
            0.0, static_cast<double>(_profile.rotationPeriod)));
    return seek + rotation;
}

void
HddMediaModel::access(std::uint64_t offset, std::uint64_t bytes,
                      bool is_write, std::function<void()> done)
{
    // Single actuator: strictly one command at a time, FIFO.
    sim::Tick start = now() > _actuatorBusy ? now() : _actuatorBusy;
    sim::Tick service =
        positionCost(offset) + _profile.mediaBw.delayFor(bytes);
    _actuatorBusy = start + service;
    _headPos = offset + bytes;
    sim().scheduleAt(_actuatorBusy,
                     [this, is_write, bytes, done = std::move(done)] {
                         if (is_write) {
                             // Cache drains once the platter write
                             // lands.
                             _cacheFill = _cacheFill > bytes
                                              ? _cacheFill - bytes
                                              : 0;
                         }
                         done();
                     });
}

void
HddMediaModel::read(std::uint64_t offset, std::uint64_t bytes,
                    std::function<void()> done)
{
    access(offset, bytes, false, std::move(done));
}

void
HddMediaModel::write(std::uint64_t offset, std::uint64_t bytes,
                     std::function<void()> done)
{
    // Small writes land in the on-board cache when it has room; the
    // media work is still queued on the actuator (write-back).
    if (_cacheFill + bytes <= _profile.writeCacheBytes) {
        _cacheFill += bytes;
        sim::Tick ack = now() + _profile.writeCacheLatency;
        access(offset, bytes, true, [] {});
        sim().scheduleAt(ack, std::move(done));
        return;
    }
    access(offset, bytes, true, std::move(done));
}

void
HddMediaModel::flush(std::function<void()> done)
{
    // Wait for the actuator to drain everything queued so far.
    sim::Tick t = now() > _actuatorBusy ? now() : _actuatorBusy;
    _cacheFill = 0;
    sim().scheduleAt(t + sim::microseconds(100), std::move(done));
}

} // namespace bms::ssd
