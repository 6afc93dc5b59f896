#include "rs/rs_code.hh"

#include <algorithm>

#include "common/logging.hh"

namespace aiecc
{

namespace
{

/**
 * Nibble-split products by eight constants c[0..7]: entry v (v < 16)
 * packs v * c[j] into byte j and entry 16 + v packs (v << 4) * c[j],
 * so x * c = row[x & 15] ^ row[16 + (x >> 4)] for all eight at once.
 */
using NibbleRow = std::array<uint64_t, 32>;
using Constants = std::array<GfElem, RsCodec::maxRoots>;
using ParityCols = std::array<NibbleRow, RsCodec::maxRoots>;

constexpr NibbleRow
nibbleRow(const Constants &c)
{
    NibbleRow row{};
    for (unsigned v = 0; v < 16; ++v) {
        for (unsigned j = 0; j < c.size(); ++j) {
            const auto lo = static_cast<GfElem>(v);
            const auto hi = static_cast<GfElem>(v << 4);
            row[v] |= uint64_t{Gf256::mul(lo, c[j])} << (8 * j);
            row[16 + v] |= uint64_t{Gf256::mul(hi, c[j])} << (8 * j);
        }
    }
    return row;
}

/**
 * Row e holds the contributions alpha^((1+j)e) of a degree-e symbol.
 * Rows are stored highest degree first (row e at index 254 - e).
 */
constexpr std::array<NibbleRow, Gf256::groupOrder>
buildSyndromeRows()
{
    std::array<NibbleRow, Gf256::groupOrder> rows{};
    for (unsigned e = 0; e < rows.size(); ++e) {
        Constants c{};
        for (unsigned j = 0; j < c.size(); ++j)
            c[j] = Gf256::alphaPow(static_cast<int>((1 + j) * e));
        rows[Gf256::groupOrder - 1 - e] = nibbleRow(c);
    }
    return rows;
}

/**
 * Columns of V^-1 for V[j][m] = alpha^((1+j)(nr-1-m)), one set per
 * nr = 1..maxRoots: p = XOR_j cols[nr-1][j] applied to S_j.  V and
 * each leading square block of it are column-scaled Vandermonde
 * matrices over distinct nonzero points, so Gauss-Jordan needs no
 * pivoting.
 */
constexpr std::array<ParityCols, RsCodec::maxRoots>
buildParityCols()
{
    constexpr unsigned maxNr = RsCodec::maxRoots;
    std::array<ParityCols, maxNr> cols{};
    for (unsigned nr = 1; nr <= maxNr; ++nr) {
        GfElem a[maxNr][2 * maxNr] = {};  // [V | I]
        for (unsigned j = 0; j < nr; ++j) {
            for (unsigned m = 0; m < nr; ++m)
                a[j][m] = Gf256::alphaPow(
                    static_cast<int>((1 + j) * (nr - 1 - m)));
            a[j][nr + j] = 1;
        }
        for (unsigned c = 0; c < nr; ++c) {
            const GfElem inv = Gf256::alphaPow(
                -static_cast<int>(Gf256::logTable()[a[c][c]]));
            for (unsigned x = 0; x < 2 * nr; ++x)
                a[c][x] = Gf256::mul(a[c][x], inv);
            for (unsigned r = 0; r < nr; ++r) {
                const GfElem f = r == c ? 0 : a[r][c];
                for (unsigned x = 0; x < 2 * nr; ++x)
                    a[r][x] ^= Gf256::mul(f, a[c][x]);
            }
        }
        for (unsigned j = 0; j < nr; ++j) {
            Constants vinvCol{};
            for (unsigned m = 0; m < nr; ++m)
                vinvCol[m] = a[m][nr + j];
            cols[nr - 1][j] = nibbleRow(vinvCol);
        }
    }
    return cols;
}

// One immutable copy shared by every codec: 64 KB of syndrome rows
// (an RS(n, k) touches only its n rows) and 16 KB of parity columns.
alignas(64) constexpr auto syndRows = buildSyndromeRows();
alignas(64) constexpr auto parityCols = buildParityCols();

} // namespace

RsCodec::RsCodec(unsigned n, unsigned k)
    : nLen(n), kLen(k),
      syndMask(n - k >= maxRoots ? ~uint64_t{0}
                                 : (uint64_t{1} << (8 * (n - k))) - 1)
{
    AIECC_ASSERT(k < n && n <= Gf256::groupOrder,
                 "invalid RS parameters n=" << n << " k=" << k);
    AIECC_ASSERT(nroots() <= maxRoots,
                 "RS codec supports at most " << maxRoots << " roots");
}

uint64_t
RsCodec::packedSyndromes(const GfElem *sym, unsigned count,
                         unsigned stride) const
{
    // Row n-1-i is stored at 254-(n-1-i): positions walk the table
    // forward, and unrolling turns the row steps into displacements.
    const uint64_t *row = syndRows[Gf256::groupOrder - nLen].data();
    uint64_t lo = 0, hi = 0;
    unsigned i = 0;
    for (; i + 4 <= count; i += 4, sym += 4 * stride, row += 4 * 32) {
#pragma GCC unroll 4
        for (unsigned b = 0; b < 4; ++b) {
            const size_t v = sym[b * stride];
            lo ^= row[32 * b + (v & 15)];
            hi ^= row[32 * b + 16 + (v >> 4)];
        }
    }
    for (; i < count; ++i, sym += stride, row += 32) {
        lo ^= row[*sym & 15];
        hi ^= row[16 + (*sym >> 4)];
    }
    return (lo ^ hi) & syndMask;
}

uint64_t
RsCodec::packedParity(uint64_t s) const
{
    const ParityCols &cols = parityCols[nroots() - 1];
    uint64_t p = 0;
    for (unsigned j = 0; j < nroots(); ++j, s >>= 8)
        p ^= cols[j][s & 15] ^ cols[j][16 + ((s >> 4) & 15)];
    return p;
}

void
RsCodec::parityInto(const GfElem *message, GfElem *parity) const
{
    parityBatch(message, parity, 1);
}

void
RsCodec::encodeInto(const GfElem *message, GfElem *codeword) const
{
    std::copy(message, message + kLen, codeword);
    parityInto(message, codeword + kLen);
}

bool
RsCodec::isCodewordRaw(const GfElem *word) const
{
    return packedSyndromes(word, nLen, 1) == 0;
}

RsCodec::Status
RsCodec::decodeInto(GfElem *received, RsWorkspace &ws,
                    uint8_t *positions, unsigned &numPositions,
                    const unsigned *erasures,
                    unsigned numErasures) const
{
    numPositions = 0;

    const unsigned nr = nroots();
    const uint64_t packed = packedSyndromes(received, nLen, 1);
    if (packed == 0)
        return Status::Ok;

    if (numErasures > nr)
        return Status::Uncorrectable;

    const auto gmul = [](GfElem a, GfElem b) { return Gf256::mul(a, b); };
    // Position pos has degree n-1-pos: locator X = alpha^(n-1-pos).
    const GfElem *exp = Gf256::expTable();

    GfElem *synd = ws.synd.data();
    for (unsigned j = 0; j < nr; ++j)
        synd[j] = static_cast<GfElem>(packed >> (8 * j));
    GfElem *lambda = ws.lambda.data();

    // Erasure locator Gamma(x) = prod (1 + X_l x), X_l = alpha^(n-1-pos).
    std::fill(lambda, lambda + nr + 1, 0);
    lambda[0] = 1;
    for (unsigned e = 0; e < numErasures; ++e) {
        const unsigned pos = erasures[e];
        AIECC_ASSERT(pos < nLen, "RS decode: erasure out of range");
        const GfElem xl = exp[nLen - 1 - pos];
        for (unsigned i = nr; i >= 1; --i)
            lambda[i] =
                static_cast<GfElem>(lambda[i] ^ gmul(lambda[i - 1], xl));
    }

    // Errors-and-erasures Berlekamp-Massey (libfec-style formulation).
    GfElem *b = ws.bpoly.data();
    GfElem *t = ws.tpoly.data();
    std::copy(lambda, lambda + nr + 1, b);
    unsigned el = numErasures;
    for (unsigned r = numErasures + 1; r <= nr; ++r) {
        // Invariant: i < r <= nr inside the discrepancy sum, so both
        // lambda[i] and synd[r - i - 1] stay in bounds — the window
        // never needs narrowing.
        AIECC_ASSERT(r <= nr, "BM round " << r << " exceeds nroots");
        GfElem discr = 0;
        for (unsigned i = 0; i < r; ++i)
            discr = static_cast<GfElem>(
                discr ^ gmul(lambda[i], synd[r - i - 1]));
        if (discr == 0) {
            // b = x * b
            for (unsigned i = nr; i >= 1; --i)
                b[i] = b[i - 1];
            b[0] = 0;
        } else {
            t[0] = lambda[0];
            for (unsigned i = 0; i < nr; ++i)
                t[i + 1] =
                    static_cast<GfElem>(lambda[i + 1] ^ gmul(discr, b[i]));
            if (2 * el <= r + numErasures - 1) {
                el = r + numErasures - el;
                const GfElem dinv = Gf256::inv(discr);
                for (unsigned i = 0; i <= nr; ++i)
                    b[i] = gmul(lambda[i], dinv);
            } else {
                for (unsigned i = nr; i >= 1; --i)
                    b[i] = b[i - 1];
                b[0] = 0;
            }
            std::copy(t, t + nr + 1, lambda);
        }
    }

    // Degree of Lambda; nonzero syndromes but no locatable error fail.
    unsigned deg = nr;
    while (deg > 0 && lambda[deg] == 0)
        --deg;
    if (deg == 0)
        return Status::Uncorrectable;

    // Chien search over the n valid positions of the shortened code,
    // evaluating Lambda on the raw workspace buffer (no per-position
    // polynomial copies).
    unsigned found = 0;
    for (unsigned pos = 0; pos < nLen; ++pos) {
        const GfElem xinv = exp[Gf256::groupOrder - (nLen - 1 - pos)];
        GfElem acc = lambda[deg];
        for (int j = static_cast<int>(deg) - 1; j >= 0; --j)
            acc = static_cast<GfElem>(
                gmul(acc, xinv) ^ lambda[static_cast<unsigned>(j)]);
        if (acc == 0) {
            ws.chien[found] = static_cast<uint8_t>(pos);
            ws.roots[found] = xinv;
            ++found;
        }
    }
    if (found != deg) {
        // Lambda has roots outside the shortened support or repeated
        // roots: a decoding failure.
        return Status::Uncorrectable;
    }

    // Omega(x) = S(x) * Lambda(x) mod x^nroots.
    GfElem *omega = ws.omega.data();
    for (unsigned i = 0; i < nr; ++i) {
        GfElem acc = 0;
        const unsigned jmax = std::min(i, deg);
        for (unsigned j = 0; j <= jmax; ++j)
            acc = static_cast<GfElem>(acc ^ gmul(lambda[j], synd[i - j]));
        omega[i] = acc;
    }

    // Forney (fcr = 1): e = Omega(X^-1) / Lambda'(X^-1), applying
    // corrections in place and saving overwritten symbols so a failed
    // screen can restore the received word exactly.
    unsigned applied = 0;
    const auto rollback = [&]() {
        for (unsigned u = 0; u < applied; ++u)
            received[ws.chien[u]] = ws.saved[u];
        numPositions = 0;
    };
    for (unsigned idx = 0; idx < found; ++idx) {
        const GfElem xinv = ws.roots[idx];
        // Lambda'(X^-1): odd-degree terms only in characteristic 2.
        const GfElem x2 = gmul(xinv, xinv);
        GfElem den = 0;
        GfElem xp = 1;
        for (unsigned j = 1; j <= deg; j += 2) {
            den = static_cast<GfElem>(den ^ gmul(lambda[j], xp));
            xp = gmul(xp, x2);
        }
        if (den == 0) {
            rollback();
            return Status::Uncorrectable;
        }
        GfElem num = omega[nr - 1];
        for (int j = static_cast<int>(nr) - 2; j >= 0; --j)
            num = static_cast<GfElem>(
                gmul(num, xinv) ^ omega[static_cast<unsigned>(j)]);
        const GfElem magnitude = Gf256::div(num, den);
        const unsigned pos = ws.chien[idx];
        ws.saved[applied] = received[pos];
        ++applied;
        received[pos] = static_cast<GfElem>(received[pos] ^ magnitude);
        if (magnitude != 0)
            positions[numPositions++] = static_cast<uint8_t>(pos);
    }

    // Sanity: the corrected word must be a codeword.  When the error
    // pattern exceeds the design distance the BM/Chien pipeline can
    // produce an inconsistent "correction"; screen it out.
    if (!isCodewordRaw(received)) {
        rollback();
        return Status::Uncorrectable;
    }

    return Status::Corrected;
}

void
RsCodec::parityBatch(const GfElem *messages, GfElem *parities,
                     unsigned lanes) const
{
    AIECC_ASSERT(lanes >= 1 && lanes <= maxLanes,
                 "RS parityBatch: bad lane count " << lanes);
    // The parity positions contribute nothing to S(m || 0).
    for (unsigned c = 0; c < lanes; ++c) {
        const uint64_t p =
            packedParity(packedSyndromes(messages + c, kLen, lanes));
        for (unsigned m = 0; m < nroots(); ++m)
            parities[m * lanes + c] = static_cast<GfElem>(p >> (8 * m));
    }
}

void
RsCodec::decodeBatch(GfElem *received, unsigned lanes,
                     LaneResult *results, RsWorkspace &ws) const
{
    AIECC_ASSERT(lanes >= 1 && lanes <= maxLanes,
                 "RS decodeBatch: bad lane count " << lanes);
    for (unsigned c = 0; c < lanes; ++c) {
        LaneResult &out = results[c];
        out = LaneResult{};
        if (packedSyndromes(received + c, nLen, lanes) == 0)
            continue;
        // Decode a dirty lane alone and scatter any corrections back.
        GfElem *lane = ws.lane.data();
        for (unsigned i = 0; i < nLen; ++i)
            lane[i] = received[static_cast<size_t>(i) * lanes + c];
        unsigned npos = 0;
        out.status = decodeInto(lane, ws, out.positions.data(), npos);
        out.numPositions = static_cast<uint8_t>(npos);
        if (out.status == Status::Corrected) {
            for (unsigned i = 0; i < nLen; ++i)
                received[static_cast<size_t>(i) * lanes + c] = lane[i];
        }
    }
}

// ---- std::vector wrappers ----

std::vector<GfElem>
RsCodec::encode(const std::vector<GfElem> &message) const
{
    std::vector<GfElem> cw = message;
    const std::vector<GfElem> par = parity(message);
    cw.insert(cw.end(), par.begin(), par.end());
    return cw;
}

std::vector<GfElem>
RsCodec::parity(const std::vector<GfElem> &message) const
{
    AIECC_ASSERT(message.size() == kLen,
                 "RS encode: message size " << message.size()
                                            << " != k " << kLen);
    std::vector<GfElem> par(nroots());
    parityInto(message.data(), par.data());
    return par;
}

bool
RsCodec::isCodeword(const std::vector<GfElem> &word) const
{
    AIECC_ASSERT(word.size() == nLen, "RS isCodeword: wrong length");
    return isCodewordRaw(word.data());
}

RsCodec::Result
RsCodec::decode(const std::vector<GfElem> &received,
                const std::vector<unsigned> &erasures) const
{
    AIECC_ASSERT(received.size() == nLen, "RS decode: wrong length");
    Result res;
    res.codeword = received;

    RsWorkspace ws;
    uint8_t positions[256];
    unsigned numPositions = 0;
    res.status = decodeInto(res.codeword.data(), ws, positions,
                            numPositions, erasures.data(),
                            static_cast<unsigned>(erasures.size()));
    res.positions.assign(positions, positions + numPositions);
    return res;
}

} // namespace aiecc
