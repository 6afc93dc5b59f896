/**
 * @file
 * The one state protocol for mergeable campaign state (DESIGN.md §12).
 *
 * Each checkpointed type lists its persisted fields once, in a static
 * visitor over any number of same-typed instances (const to save,
 * mutable to load or sum):
 *
 * @code
 * template <class V, class... Self>
 * static void fields(V &v, Self &...self)
 * {
 *     v("trials", self.trials...);
 * }
 * @endcode
 *
 * From it come save(x), load(x, text) — all or nothing; a failure
 * leaves @c x untouched and names type and field,
 * "LineageLedger.recs[3].kind: ..." — and sumInto(a, b) for plain-sum
 * merges.  Integers are decimal and range-checked, doubles hex bit
 * patterns, enums integers below `stateLimit(E)` (found next to the
 * enum by ADL), strings `<bytes>:<raw>`, containers a count then their
 * elements.  An optional `std::string rebuild()` restores derived
 * members after a read (so they are never stored) and checks identity,
 * returning "" or "<field>: <why>".  Types keeping fields() or
 * rebuild() private befriend state::Access.
 */

#ifndef AIECC_COMMON_STATE_HH
#define AIECC_COMMON_STATE_HH

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cxxabi.h>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

namespace aiecc
{
namespace state
{

/** Outcome of a load. */
struct Status
{
    bool ok = false;
    std::string error; ///< why the load failed (empty when ok)
};

/** The codec's door into types that keep their state private. */
struct Access
{
    template <class V, class T, class... Rest>
    static void
    fields(V &v, T &x, Rest &...rest)
    {
        std::remove_const_t<T>::fields(v, x, rest...);
    }

    template <class T>
    static std::string
    rebuild(T &x)
    {
        if constexpr (requires { x.rebuild(); })
            return x.rebuild();
        return {};
    }

    template <class T>
    static std::unique_ptr<T>
    make()
    {
        return std::unique_ptr<T>(new T());
    }
};

namespace detail
{

template <class T> struct IsVector : std::false_type {};
template <class T> struct IsVector<std::vector<T>> : std::true_type {};
template <class T> struct IsMap : std::false_type {};
template <class K, class V> struct IsMap<std::map<K, V>> : std::true_type {};
template <class T> struct IsPair : std::false_type {};
template <class A, class B> struct IsPair<std::pair<A, B>> : std::true_type {};
template <class T> struct IsPtr : std::false_type {};
template <class T> struct IsPtr<std::unique_ptr<T>> : std::true_type {};

/** Unqualified name of @p T ("LineageLedger"), for diagnostics. */
template <class T>
std::string
typeName()
{
    int status = 0;
    char *raw = abi::__cxa_demangle(typeid(T).name(), nullptr, nullptr,
                                    &status);
    std::string name = status == 0 && raw ? raw : typeid(T).name();
    std::free(raw);
    const size_t colon = name.rfind("::", name.find('<'));
    return colon == std::string::npos ? name : name.substr(colon + 2);
}

class Writer
{
  public:
    std::string out;

    template <class F>
    void
    operator()(const char *, const F &f)
    {
        if constexpr (std::is_same_v<F, bool> || std::is_enum_v<F>) {
            number(static_cast<uint64_t>(f));
        } else if constexpr (std::is_integral_v<F>) {
            number(f);
        } else if constexpr (std::is_same_v<F, double>) {
            number(std::bit_cast<uint64_t>(f), 16);
        } else if constexpr (std::is_same_v<F, std::string>) {
            number(f.size());
            out += ':';
            out += f;
        } else if constexpr (std::is_array_v<F> || IsVector<F>::value ||
                             IsMap<F>::value) {
            if constexpr (!std::is_array_v<F>)
                number(f.size());
            for (const auto &e : f)
                (*this)(nullptr, e);
        } else if constexpr (IsPair<F>::value) {
            (*this)(nullptr, f.first);
            (*this)(nullptr, f.second);
        } else if constexpr (IsPtr<F>::value) {
            (*this)(nullptr, *f);
        } else {
            Access::fields(*this, f);
        }
    }

  private:
    template <class I>
    void
    number(I value, int base = 10)
    {
        char buf[24];
        const auto end = std::to_chars(buf, buf + sizeof buf, value, base);
        if (!out.empty())
            out += ' ';
        out.append(buf, end.ptr);
    }
};

template <class T>
class Reader
{
  public:
    explicit Reader(std::string_view input) : text(input) {}

    template <class F>
    void
    operator()(const char *name, F &f)
    {
        step(name, 0, f);
    }

    /** Read @p x whole, then demand the end of the input. */
    Status
    top(T &x)
    {
        get(x);
        if (why.empty() && pos < text.size()) {
            path.push_back({last, 0});
            fail("trailing tokens after the last field");
        }
        return {why.empty(), why};
    }

  private:
    /** One step of the field path: a name, or [index] when null. */
    struct Step
    {
        const char *name;
        size_t index;
    };

    std::string_view text;
    size_t pos = 0;
    std::vector<Step> path;
    const char *last = nullptr; ///< the last top-level field read
    std::string why;

    template <class F>
    void
    step(const char *name, size_t index, F &f)
    {
        if (!why.empty())
            return;
        if (path.empty() && name)
            last = name;
        path.push_back({name, index});
        get(f);
        if (why.empty())
            path.pop_back();
    }

    /** Record "<Type><path>[.<field>]: <reason>". */
    void
    fail(const std::string &reason, const std::string &field = "")
    {
        why = typeName<T>();
        for (const Step &s : path)
            why += s.name ? std::string(".") + s.name
                          : "[" + std::to_string(s.index) + "]";
        why += (field.empty() ? "" : "." + field) + ": " + reason;
    }

    /** Parse the next token (up to a space, or to @p stop) into @p v. */
    template <class I>
    bool
    number(I &v, int base = 10, char stop = ' ')
    {
        if (pos > 0)
            ++pos; // the separator the previous token stopped at
        if (pos >= text.size()) {
            fail("truncated: field missing");
            return false;
        }
        const size_t end = std::min(text.find(stop, pos), text.size());
        const std::string_view tok = text.substr(pos, end - pos);
        pos = end;
        const char *tokEnd = tok.data() + tok.size();
        const auto res = std::from_chars(tok.data(), tokEnd, v, base);
        const std::string shown(tok.substr(0, 24));
        if (res.ec == std::errc::result_out_of_range)
            fail("'" + shown + "' overflows a " +
                 std::to_string(8 * sizeof(I)) + "-bit field");
        else if (res.ec != std::errc{} || res.ptr != tokEnd)
            fail("'" + shown + "' is not a number");
        return why.empty();
    }

    template <class F>
    void
    get(F &f)
    {
        if constexpr (std::is_same_v<F, bool> || std::is_enum_v<F>) {
            uint64_t v = 0, limit = 2;
            if constexpr (std::is_enum_v<F>)
                limit = stateLimit(F{});
            if (number(v) && v >= limit)
                fail("value " + std::to_string(v) +
                     " out of range (limit " + std::to_string(limit) + ")");
            f = static_cast<F>(v);
        } else if constexpr (std::is_integral_v<F>) {
            number(f);
        } else if constexpr (std::is_same_v<F, double>) {
            uint64_t bits = 0;
            if (number(bits, 16))
                f = std::bit_cast<double>(bits);
        } else if constexpr (std::is_same_v<F, std::string>) {
            size_t bytes = 0;
            if (!number(bytes, 10, ':'))
                return;
            if (pos == text.size() || bytes > text.size() - pos - 1)
                return fail("truncated: string of " +
                            std::to_string(bytes) + " bytes cut short");
            f.assign(text.substr(pos + 1, bytes));
            pos += 1 + bytes;
            if (pos < text.size() && text[pos] != ' ')
                fail("string overruns its " + std::to_string(bytes) +
                     "-byte length");
        } else if constexpr (std::is_array_v<F>) {
            for (size_t i = 0; i < std::extent_v<F>; ++i)
                step(nullptr, i, f[i]);
        } else if constexpr (IsVector<F>::value || IsMap<F>::value) {
            // No reserve(): a hostile count must not allocate; a short
            // input fails at its first missing element instead.
            size_t count = 0;
            if (!number(count))
                return;
            f.clear();
            for (size_t i = 0; i < count && why.empty(); ++i) {
                if constexpr (IsVector<F>::value) {
                    step(nullptr, i, f.emplace_back());
                } else {
                    std::pair<typename F::key_type, typename F::mapped_type>
                        entry{};
                    step(nullptr, i, entry);
                    if (why.empty() && !f.insert(std::move(entry)).second) {
                        path.push_back({nullptr, i});
                        fail("duplicate key");
                    }
                }
            }
        } else if constexpr (IsPair<F>::value) {
            get(f.first);
            if (why.empty())
                get(f.second);
        } else if constexpr (IsPtr<F>::value) {
            if (!f)
                f = Access::make<typename F::element_type>();
            get(*f);
        } else {
            Access::fields(*this, f);
            const std::string err = why.empty() ? Access::rebuild(f) : "";
            const size_t colon = err.find(": ");
            if (colon != std::string::npos)
                fail(err.substr(colon + 2), err.substr(0, colon));
            else if (!err.empty())
                fail(err);
        }
    }
};

struct Summer
{
    template <class F>
    void
    operator()(const char *, F &into, const F &from)
    {
        if constexpr (std::is_arithmetic_v<F>) {
            static_assert(!std::is_same_v<F, bool>, "bools do not sum");
            into += from;
        } else if constexpr (std::is_array_v<F>) {
            for (size_t i = 0; i < std::extent_v<F>; ++i)
                (*this)(nullptr, into[i], from[i]);
        } else if constexpr (IsMap<F>::value) {
            for (const auto &[key, value] : from)
                (*this)(nullptr, into[key], value);
        } else {
            Access::fields(*this, into, from);
        }
    }
};

} // namespace detail

/** The text form of @p x's fields. */
template <class T>
std::string
save(const T &x)
{
    detail::Writer w;
    w(nullptr, x);
    return std::move(w.out);
}

/**
 * Replace @p target's fields with those in @p text (a save() form).
 * The fields are read into a scratch copy of @p target (a default one
 * for move-only types) that is moved in only after every field, every
 * rebuild() and the end-of-input check succeeded.
 */
template <class T>
Status
load(T &target, std::string_view text)
{
    T fresh = [&] {
        if constexpr (std::is_copy_constructible_v<T>)
            return T(target);
        else
            return T();
    }();
    const Status st = detail::Reader<T>(text).top(fresh);
    if (st.ok)
        target = std::move(fresh);
    return st;
}

/** @p into += @p from, field by field (plain-sum merges only). */
template <class T>
void
sumInto(T &into, const T &from)
{
    detail::Summer()(nullptr, into, from);
}

} // namespace state
} // namespace aiecc

#endif // AIECC_COMMON_STATE_HH
