#include "fuzz/op_log.hh"

#include "sim/check.hh"
#include "sim/simulator.hh"

namespace bms::fuzz {

OpLog::OpLog(std::size_t capacity)
{
    BMS_ASSERT(capacity > 0, "op log needs a nonzero capacity");
    _ring.resize(capacity);
}

void
OpLog::record(sim::Tick tick, const sim::SimObject *who, const char *label,
              std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    _ring[_next] = Entry{tick, who, label, {a, b, c}};
    _next = (_next + 1) % _ring.size();
    ++_total;
}

void
OpLog::dump(std::ostream &os) const
{
    std::size_t retained = _total < _ring.size() ? _total : _ring.size();
    os << "---- fuzz op log (last " << retained << " of " << _total
       << " ops) ----\n";
    // Oldest retained entry: _next when the ring has wrapped, else 0.
    std::size_t start = _total < _ring.size() ? 0 : _next;
    for (std::size_t i = 0; i < retained; ++i) {
        const Entry &e = _ring[(start + i) % _ring.size()];
        os << "  [" << e.tick << "] ";
        if (e.who)
            os << e.who->name() << " ";
        std::size_t arg = 0;
        for (const char *p = e.label; *p; ++p) {
            if (p[0] == '{' && p[1] == '}' && arg < 3) {
                os << e.args[arg++];
                ++p;
            } else {
                os << *p;
            }
        }
        os << "\n";
    }
    os << "---- end op log ----\n";
}

} // namespace bms::fuzz
