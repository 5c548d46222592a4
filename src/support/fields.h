/**
 * @file
 * Member-pointer field tables for the homogeneous telemetry structs
 * (DESIGN.md "Telemetry field tables & JSON codec"). Each struct
 * declares one table next to itself with BITSPEC_FIELD_TABLE: every
 * member, in declaration order, with its snake_case ledger name. The
 * table fails to compile when a member is missing or listed twice,
 * and everything that walks the struct field by field iterates it.
 */

#ifndef BITSPEC_SUPPORT_FIELDS_H_
#define BITSPEC_SUPPORT_FIELDS_H_

#include <cstddef>
#include <string>
#include <type_traits>

namespace bitspec
{

/** One table entry: a member of @p T and its name. */
template <typename T, typename V>
struct Field
{
    using Value = V;
    V T::*member;
    const char *name;
};

/** Holds `static constexpr Field<T, V> kFields[]`; specialised by
 *  BITSPEC_FIELD_TABLE. */
template <typename T>
struct FieldTable;

template <typename T>
constexpr const auto &
fieldsOf()
{
    return FieldTable<T>::kFields;
}

/** True when the table of @p T lists each member exactly once: no
 *  duplicates, and the entries account for the whole sizeof. */
template <typename T>
constexpr bool
fieldTableComplete()
{
    constexpr const auto &fields = fieldsOf<T>();
    constexpr size_t n = sizeof(fields) / sizeof(fields[0]);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < i; ++j)
            if (fields[i].member == fields[j].member)
                return false;
    using V = typename std::remove_cvref_t<decltype(fields[0])>::Value;
    return sizeof(T) == n * sizeof(V);
}

/** Define the table of @p T, whose members are all of type @p V, from
 *  its `{&T::member, "name"}` entries. */
#define BITSPEC_FIELD_TABLE(T, V, ...)                                 \
    template <>                                                        \
    struct FieldTable<T>                                               \
    {                                                                  \
        static constexpr Field<T, V> kFields[] = {__VA_ARGS__};        \
    };                                                                 \
    static_assert(fieldTableComplete<T>(),                             \
                  "every " #T " member needs a field-table entry")

/** @p a += @p b, field by field. */
template <typename T>
T &
addFields(T &a, const T &b)
{
    for (const auto &f : fieldsOf<T>())
        a.*f.member += b.*f.member;
    return a;
}

/** "<prefix><name> <a> != <b>" for the first field where @p a and
 *  @p b differ, or "" when every field is equal. */
template <typename T>
std::string
firstFieldDiff(const T &a, const T &b, const std::string &prefix = "")
{
    for (const auto &f : fieldsOf<T>())
        if (a.*f.member != b.*f.member)
            return prefix + f.name + " " + std::to_string(a.*f.member) +
                   " != " + std::to_string(b.*f.member);
    return "";
}

} // namespace bitspec

#endif // BITSPEC_SUPPORT_FIELDS_H_
