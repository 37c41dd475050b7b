/**
 * @file
 * Little-endian wire codec for MCTP / NVMe-MI payloads.
 *
 * A payload type lists its fields once, in wire order:
 *
 *     template <class Io> void io(Io &x) { x(fn, nsid, thin); }
 *
 * `Writer` encodes from that list and `Reader` decodes from it, so each
 * layout is written once, never by hand on either side. Field
 * encodings:
 *
 *   - unsigned integers: little-endian at their own width;
 *   - `bool`: one byte, 0 or 1 (any non-zero byte decodes as true);
 *   - `double`: its IEEE-754 bits as a u64;
 *   - an enum: its underlying type;
 *   - `std::string`: a u16 length, then the bytes;
 *   - `list<Count>(vec)`: a `Count`-wide element count, then the
 *     elements. The writer caps the count at `Count`'s maximum; the
 *     reader keeps only the elements that arrive whole;
 *   - `Rest{bytes}`: raw bytes to the end of the message;
 *   - a struct with its own `io()`: its fields, inline.
 */

#ifndef BMS_CORE_MGMT_WIRE_HH
#define BMS_CORE_MGMT_WIRE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace bms::core::wire {

/** A vector field prefixed by its element count, @p CountT wide. */
template <class CountT, class T>
struct List
{
    static_assert(std::is_unsigned_v<CountT>, "list counts are unsigned");
    using Count = CountT;
    std::vector<T> &items;
};

template <class Count, class T>
List<Count, T>
list(std::vector<T> &items)
{
    return {items};
}

/** The bytes from the current position to the end of the message. */
struct Rest
{
    std::vector<std::uint8_t> &bytes;
};

template <class T>
inline constexpr bool kIsList = false;
template <class Count, class T>
inline constexpr bool kIsList<List<Count, T>> = true;

template <class T>
inline constexpr bool kIsScalar =
    std::is_arithmetic_v<T> || std::is_enum_v<T>;

/** The unsigned integer a scalar field travels as. */
template <class T>
constexpr auto
wireForm(T v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return static_cast<std::uint8_t>(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
        return wireForm(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_same_v<T, double>) {
        return std::bit_cast<std::uint64_t>(v);
    } else {
        static_assert(std::is_unsigned_v<T>, "wire integers are unsigned");
        return v;
    }
}

/** Append-only encoder over a payload's field list. */
class Writer
{
  public:
    template <class... Ts>
    void
    operator()(const Ts &...fields)
    {
        (put(fields), ...);
    }

    std::vector<std::uint8_t> take() { return std::move(_buf); }

  private:
    template <class T>
    void
    put(const T &v)
    {
        if constexpr (kIsScalar<T>) {
            auto u = wireForm(v);
            for (std::size_t i = 0; i < sizeof(u); ++i)
                _buf.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
        } else if constexpr (std::is_same_v<T, std::string>) {
            auto n = static_cast<std::uint16_t>(
                std::min<std::size_t>(v.size(), 0xFFFF));
            put(n);
            _buf.insert(_buf.end(), v.begin(), v.begin() + n);
        } else if constexpr (kIsList<T>) {
            using Count = typename T::Count;
            auto n = static_cast<Count>(std::min<std::size_t>(
                v.items.size(), std::numeric_limits<Count>::max()));
            put(n);
            for (std::size_t i = 0; i < n; ++i)
                put(v.items[i]);
        } else if constexpr (std::is_same_v<T, Rest>) {
            _buf.insert(_buf.end(), v.bytes.begin(), v.bytes.end());
        } else {
            // A record: walking its field list only reads the fields.
            const_cast<T &>(v).io(*this);
        }
    }

    std::vector<std::uint8_t> _buf;
};

/**
 * Bounds-checked decoder over a payload's field list. Once a field
 * runs past the end, ok() turns false and the fields after it keep
 * the values they had.
 */
class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t> &buf) : _buf(buf) {}

    bool ok() const { return _ok; }
    std::size_t remaining() const { return _buf.size() - _pos; }

    template <class... Ts>
    void
    operator()(Ts &&...fields)
    {
        (get(fields), ...);
    }

  private:
    template <class T>
    void
    get(T &v)
    {
        if (!_ok)
            return;
        if constexpr (kIsScalar<T>) {
            using U = decltype(wireForm(v));
            if (!ensure(sizeof(U)))
                return;
            U u = 0;
            for (std::size_t i = 0; i < sizeof(U); ++i)
                u = static_cast<U>(u | (static_cast<U>(_buf[_pos++])
                                        << (8 * i)));
            if constexpr (std::is_same_v<T, bool>)
                v = u != 0;
            else if constexpr (std::is_same_v<T, double>)
                v = std::bit_cast<double>(u);
            else
                v = static_cast<T>(u);
        } else if constexpr (std::is_same_v<T, std::string>) {
            std::uint16_t n = 0;
            get(n);
            if (!ensure(n))
                return;
            v.assign(_buf.begin() + static_cast<std::ptrdiff_t>(_pos),
                     _buf.begin() + static_cast<std::ptrdiff_t>(_pos + n));
            _pos += n;
        } else if constexpr (kIsList<T>) {
            typename T::Count n = 0;
            get(n);
            if (!_ok)
                return;
            v.items.clear();
            for (std::size_t i = 0; i < n && _ok; ++i) {
                typename std::decay_t<decltype(v.items)>::value_type item{};
                get(item);
                if (_ok)
                    v.items.push_back(std::move(item));
            }
        } else if constexpr (std::is_same_v<T, Rest>) {
            v.bytes.assign(_buf.begin() + static_cast<std::ptrdiff_t>(_pos),
                           _buf.end());
            _pos = _buf.size();
        } else {
            v.io(*this);
        }
    }

    bool
    ensure(std::size_t n)
    {
        if (remaining() < n)
            _ok = false;
        return _ok;
    }

    const std::vector<std::uint8_t> &_buf;
    std::size_t _pos = 0;
    bool _ok = true;
};

/** The wire bytes of @p v. */
template <class T>
std::vector<std::uint8_t>
encode(const T &v)
{
    Writer w;
    w(v);
    return w.take();
}

/** Decode @p buf into @p v. @return false when @p buf is too short. */
template <class T>
bool
decode(const std::vector<std::uint8_t> &buf, T &v)
{
    Reader r(buf);
    r(v);
    return r.ok();
}

} // namespace bms::core::wire

#endif // BMS_CORE_MGMT_WIRE_HH
