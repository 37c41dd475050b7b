#include "probe.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <utility>

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracer

std::uint32_t
Tracer::intern(const std::string &name)
{
    for (std::size_t i = 0; i < _names.size(); ++i) {
        if (_names[i] == name)
            return static_cast<std::uint32_t>(i);
    }
    _names.push_back(name);
    _selfNs.push_back(0);
    return static_cast<std::uint32_t>(_names.size() - 1);
}

void
Tracer::open(std::uint32_t name, std::uint64_t req)
{
    Open o;
    o.name = name;
    o.start = wallNs();
    if (_records.size() < kMaxSpans) {
        Record r;
        r.name = name;
        r.parent = _stack.empty() ? 0 : _stack.back().record;
        r.req = req;
        r.start = o.start;
        _records.push_back(r);
        o.record = static_cast<std::uint32_t>(_records.size());
    }
    _stack.push_back(o);
}

void
Tracer::close()
{
    std::int64_t end = wallNs();
    Open o = _stack.back();
    _stack.pop_back();
    std::int64_t dur = end - o.start;
    _selfNs[o.name] += dur - o.childNs;
    ++_closed;
    if (o.record != 0)
        _records[o.record - 1].end = end;
    if (!_stack.empty())
        _stack.back().childNs += dur;
}

std::int64_t
Tracer::selfNs(const std::string &name) const
{
    for (std::size_t i = 0; i < _names.size(); ++i) {
        if (_names[i] == name)
            return _selfNs[i];
    }
    return 0;
}

void
Tracer::resetTotals()
{
    std::fill(_selfNs.begin(), _selfNs.end(), 0);
    _closed = 0;
}

bool
Tracer::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id,name,parent,req,start_ns,end_ns\n");
    std::int64_t base = _records.empty() ? 0 : _records.front().start;
    for (std::size_t i = 0; i < _records.size(); ++i) {
        const Record &r = _records[i];
        std::fprintf(f, "%zu,%s,%u,%llu,%lld,%lld\n", i + 1,
                     _names[r.name].c_str(), r.parent,
                     static_cast<unsigned long long>(r.req),
                     static_cast<long long>(r.start - base),
                     static_cast<long long>(r.end - base));
    }
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Probe / TimedDevice

Probe::Probe(bms::sim::Simulator &s, Tracer &t, int n_tenants)
    : sim(s), tracer(t), submitSpan(t.intern("host.submit")),
      tenants(static_cast<std::size_t>(n_tenants))
{}

TimedDevice::TimedDevice(Probe &probe, bms::host::BlockDeviceIf &inner,
                         int tenant, std::uint32_t upper_span,
                         int queue_hint)
    : _probe(probe), _inner(inner), _tenant(tenant), _upperSpan(upper_span),
      _queueHint(queue_hint)
{}

void
TimedDevice::submit(bms::host::BlockRequest req)
{
    using Op = bms::host::BlockRequest::Op;
    Probe &p = _probe;
    if (_queueHint >= 0)
        req.queueHint = _queueHint;
    std::uint64_t id = p.nextReq++;
    bool timed = p.timed;
    bool measured = p.measuring && !_sweeping;
    if (timed) {
        ++p.submitted;
        if (req.op == Op::Read)
            p.readBytes += req.len;
        else if (req.op == Op::Write)
            p.writeBytes += req.len;
    }
    Op op = req.op;
    Tick submitted = p.sim.now();
    req.done = [this, id, op, submitted, timed, measured,
                done = std::move(req.done)](bool ok) {
        completed(op, submitted, timed, measured, ok);
        Span s(_probe.tracer, _upperSpan, id);
        if (done)
            done(ok);
    };
    Span s(p.tracer, p.submitSpan, id);
    _inner.submit(std::move(req));
}

void
TimedDevice::completed(bms::host::BlockRequest::Op op, Tick submitted,
                       bool timed, bool measured, bool ok)
{
    using Op = bms::host::BlockRequest::Op;
    Probe &p = _probe;
    if (!ok)
        ++p.failed;
    if (timed)
        ++p.completed;
    if (!measured)
        return;
    Tick now = p.sim.now();
    Tick lat = now - submitted;
    if (op == Op::Read)
        p.readLat.add(lat);
    else if (op == Op::Write)
        p.writeLat.add(lat);
    else if (op == Op::Flush)
        p.flushLat.add(lat);
    TenantTally &t = p.tenants[static_cast<std::size_t>(_tenant)];
    if (t.ios > 0)
        t.maxGap = std::max(t.maxGap, now - t.lastDone);
    t.lastDone = now;
    t.maxLatency = std::max(t.maxLatency, lat);
    ++t.ios;
    ++p.windowIos;
    p.windowEnd = std::max(p.windowEnd, now);
}

// ---------------------------------------------------------------------------
// Snapshot

namespace {

bool
startsWithIndexed(const std::string &s, const char *prefix)
{
    std::size_t n = std::char_traits<char>::length(prefix);
    if (s.size() <= n || s.compare(0, n, prefix) != 0)
        return false;
    return std::isdigit(static_cast<unsigned char>(s[n])) != 0;
}

/** Folded counter name, or "" for stats the benchmark ignores. */
std::string
foldName(const std::string &raw)
{
    std::string name = raw;
    if (startsWithIndexed(name, "card"))
        name = name.substr(name.find('.') + 1);
    std::size_t dot = name.find('.');
    if (dot == std::string::npos)
        return "";
    std::string head = name.substr(0, dot);
    std::string rest = name.substr(dot + 1);
    std::string leaf = name.substr(name.rfind('.') + 1);
    if (head == "bms") {
        std::string part = rest.substr(0, rest.find('.'));
        if (startsWithIndexed(part, "pf") || startsWithIndexed(part, "vf"))
            return "fn." + leaf;
        if (startsWithIndexed(part, "adaptor"))
            return "adaptor." + leaf;
        if (part == "target" || part == "qos" || part == "miggate")
            return name;
        return "";
    }
    if (startsWithIndexed(head, "bssd") || startsWithIndexed(head, "spare")) {
        if (name.find(".ctrl.") != std::string::npos)
            return "ssd." + leaf;
        return "";
    }
    if (head == "bmsc" && rest.rfind("migration.", 0) == 0)
        return name;
    return "";
}

} // namespace

void
snapshotSim(bms::sim::Simulator &sim, Snapshot &out)
{
    sim.stats().visit([&out](const std::string &name, double v) {
        std::string key = foldName(name);
        if (!key.empty())
            out.stats[key] += v;
    });
    out.events = sim.queue().executedCount();
    out.now = sim.now();
}

} // namespace perfbench
