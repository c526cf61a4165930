"""Hilbert series of monomial ideals, counted without listing a monomial.

``ideal_series`` gives the Hilbert series, truncated at a degree, of S/J:
S the polynomial ring on variables x_s of degree ``weights[s]``, J the ideal
of the given monomials, each a support ((slot, exponent), ...) and none
dividing another.  ``fp`` counts a quotient's dimensions with it, J being
the leading monomials of the quotient's Groebner basis and the squares of
its exterior generators.

The count is Bigatti's pivot recursion (JPAA 119, 1997, after Bayer &
Stillman, JSC 14, 1992):

    S/J = S/(J + x_v^e)  +  t^(e |x_v|) * S/(J : x_v^e),

with x_v in the most generators that are not pure powers and e its least
exponent there.  The first part holds x_v only in a pure power, and the
second has lower exponents and a lower truncation.  Once every generator is
a pure power x_s^e, the series is the product of the
(1 - t^(e |x_s|)) / (1 - t^|x_s|).  A generator above the truncation is
dropped, and each set of generators is counted once.  The arithmetic is on
Python ints, and the module imports nothing from the package.
"""

from __future__ import annotations


def ideal_series(weights, supports, top: int) -> list[int]:
    """Dimensions of S/J in degrees 0..``top``.  A generator is held as
    (slot bits, degree, support)."""
    memo: dict = {}

    def series(gens: frozenset, top: int) -> list[int]:
        if len(memo.get(gens, ())) > top:
            return memo[gens]
        powers, seen, least = {}, {}, {}  # slot -> pure power; others holding it; least exponent
        for _, _, support in gens:
            if len(support) == 1:
                powers.update(support)
                continue
            for s, e in support:
                seen[s] = seen.get(s, 0) + 1
                least[s] = min(least.get(s, e), e)
        if not seen:
            out = [1] + [0] * top
            for s, w in enumerate(weights):
                for d in range(w, top + 1):
                    out[d] += out[d - w]
                w *= powers.get(s, top + 1)
                for d in range(top, w - 1, -1):
                    out[d] -= out[d - w]
        else:
            v = max(seen, key=lambda s: (seen[s], -s))
            e, bit = least[v], 1 << v
            shift = e * weights[v]
            plus = [g for g in gens if not g[0] & bit] + [(bit, shift, ((v, e),))]
            out = series(frozenset(plus), top)[:top + 1]
            # the quotients g / x_v^e stay minimal among themselves, so J : x_v^e
            # is minimal once the generators without x_v that they divide go
            colon = []
            for mask, d, support in gens:
                if mask & bit:
                    rest = tuple((s, x - e * (s == v)) for s, x in support if s != v or x > e)
                    colon.append((_bits(rest), d - shift, rest))
            quotients = tuple(colon)
            for g in plus[:-1]:
                if g[1] + shift > top:
                    continue
                exps = dict(g[2])
                if not any(
                    not m & ~g[0] and all(exps[s] >= x for s, x in q) for m, _, q in quotients
                ):
                    colon.append(g)
            for d, c in zip(range(shift, top + 1), series(frozenset(colon), top - shift)):
                out[d] += c
        memo[gens] = out
        return out

    if () in supports:
        return [0] * (top + 1)
    gens = [(_bits(g), sum(e * weights[s] for s, e in g), g) for g in supports]
    return series(frozenset(g for g in gens if g[1] <= top), top)


def _bits(support) -> int:
    """The slots of a support as the bits of an int."""
    return sum(1 << s for s, _ in support)
