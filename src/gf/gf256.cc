#include "gf/gf256.hh"

#include "common/logging.hh"

namespace aiecc
{

GfElem
Gf256::div(GfElem a, GfElem b)
{
    AIECC_ASSERT(b != 0, "GF(256) division by zero");
    if (a == 0)
        return 0;
    return tab.exp[tab.logTab[a] + groupOrder - tab.logTab[b]];
}

GfElem
Gf256::inv(GfElem a)
{
    AIECC_ASSERT(a != 0, "GF(256) inverse of zero");
    return tab.exp[groupOrder - tab.logTab[a]];
}

unsigned
Gf256::log(GfElem a)
{
    AIECC_ASSERT(a != 0, "GF(256) log of zero");
    return tab.logTab[a];
}

GfElem
Gf256::pow(GfElem a, unsigned power)
{
    if (power == 0)
        return 1;
    if (a == 0)
        return 0;
    const unsigned e =
        (static_cast<unsigned long long>(log(a)) * power) % groupOrder;
    return tab.exp[e];
}

} // namespace aiecc
