"""Closed forms and independent computations the benchmark checks outputs against.

Nothing here imports the package under test: every expected value is either
a closed form (Hilbert series of complete intersections, the motive
decomposition of a quadric) or a small computation of the benchmark's own
(Milnor operations on a split torus, Dickson invariants).  Each ``check_*``
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import re
from itertools import product


# -- Hilbert series ------------------------------------------------------------


def series(cap, gen_degrees=(), rel_degrees=(), exterior_degrees=()):
    """Coefficients through t^cap of
    prod(1 - t^r) * prod(1 + t^o) / prod(1 - t^g)."""
    out = [1] + [0] * cap
    for g in gen_degrees:
        for i in range(g, cap + 1):
            out[i] += out[i - g]
    for o in exterior_degrees:
        for i in range(cap, o - 1, -1):
            out[i] += out[i - o]
    for r in rel_degrees:
        for i in range(cap, r - 1, -1):
            out[i] -= out[i - r]
    return out


def elementary_series(p, n, cap):
    """H*(B(Z/p)^n; F_p): F_2[x_1..x_n] at p = 2, else F_p[y] (x) Lambda(x)."""
    if p == 2:
        return series(cap, gen_degrees=[1] * n)
    return series(cap, gen_degrees=[2] * n, exterior_degrees=[1] * n)


def quillen_series(n, cap):
    """Quillen's ring F_2[x_1..x_2n]/(f, Q_0 f, .., Q_(n-2) f) (x) F_2[w_(2^n)]:
    the relations form a regular sequence of degrees 2, 3, 5, .., 2^(n-1) + 1."""
    rels = [2] + [2 ** (i + 1) + 1 for i in range(n - 1)]
    return series(cap, gen_degrees=[1] * (2 * n) + [2**n], rel_degrees=rels)


def regular_pair_series(cap):
    """F_3[y_1..y_4] (|y| = 2) modulo a regular pair of degrees 8 and 20."""
    return series(cap, gen_degrees=[2] * 4, rel_degrees=[8, 20])


# -- polynomials printed by the program ----------------------------------------

_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9']*)(?:\^(\d+))?$")


def parse_poly(text, names, p):
    """Parse the program's rendering 'c*a^2*b + d' into {exponents: coeff}.
    Monomials are commutative exponent tuples over ``names``."""
    text = text.strip()
    out = {}
    if text in ("", "0"):
        return out
    index = {n: i for i, n in enumerate(names)}
    for term in text.split(" + "):
        coeff = 1
        exps = [0] * len(names)
        for k, factor in enumerate(term.split("*")):
            if k == 0 and factor.isdigit():
                coeff = int(factor)
                continue
            m = _FACTOR.match(factor)
            if not m or m.group(1) not in index:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            exps[index[m.group(1)]] += int(m.group(2) or 1)
        key = tuple(exps)
        out[key] = (out.get(key, 0) + coeff) % p
        if not out[key]:
            del out[key]
    return out


# -- F_2 polynomial arithmetic (sets of exponent tuples) -----------------------


def f2_mul(a, b):
    out = set()
    for m1 in a:
        for m2 in b:
            out ^= {tuple(x + y for x, y in zip(m1, m2))}
    return frozenset(out)


def f2_pow(a, k, nvars):
    out = frozenset({(0,) * nvars})
    for _ in range(k):
        out = f2_mul(out, a)
    return out


def f2_q(j, poly):
    """Milnor's Q_j on F_2[t_1..t_k]: the derivation with Q_j(t) = t^(2^(j+1))."""
    jump = 2 ** (j + 1)
    out = set()
    for m in poly:
        for k, e in enumerate(m):
            if e % 2:
                mm = list(m)
                mm[k] = e - 1 + jump
                out ^= {tuple(mm)}
    return frozenset(out)


def _elementary_symmetric(forms, nvars):
    """e_0..e_r of the given linear forms (F_2 polynomials)."""
    one = frozenset({(0,) * nvars})
    e = [one]
    for f in forms:
        e = e + [frozenset()]
        e = [e[0]] + [e[i] ^ f2_mul(e[i - 1], f) for i in range(1, len(e))]
    return e


def det1_torus_images(rank):
    """Images of w_1..w_rank under restriction of H*(BO(rank)) to the torus
    of diagonal sign matrices with determinant 1: the t_k with
    t_rank = t_1 + .. + t_(rank-1), so w_1 maps to 0 (the SO quotient)."""
    nv = rank - 1
    forms = []
    for k in range(nv):
        exps = [0] * nv
        exps[k] = 1
        forms.append(frozenset({tuple(exps)}))
    forms.append(frozenset(tuple(1 if i == k else 0 for i in range(nv)) for k in range(nv)))
    return _elementary_symmetric(forms, nv), nv


def dickson_images():
    """Images of w4, w6, w7 in H*(B(Z/2)^3) = F_2[t_1,t_2,t_3]: the Dickson
    invariants, read off prod over nonzero v of (X + v.t) = X^7 + d4 X^3 + d6 X + d7."""
    nv = 4  # X, t1, t2, t3
    poly = frozenset({(0, 0, 0, 0)})
    for v in product((0, 1), repeat=3):
        if not any(v):
            continue
        form = {(1, 0, 0, 0)}
        for k, bit in enumerate(v):
            if bit:
                exps = [0, 0, 0, 0]
                exps[k + 1] = 1
                form ^= {tuple(exps)}
        poly = f2_mul(poly, frozenset(form))

    def coeff(xpow):
        return frozenset(m[1:] for m in poly if m[0] == xpow)

    return {"w4": coeff(3), "w6": coeff(1), "w7": coeff(0)}, nv - 1


def _restrict(poly, names, images, nvars):
    """Evaluate an F_p-coefficient w-polynomial (p = 2) at the given images."""
    out = frozenset()
    for exps, c in poly.items():
        if c % 2 == 0:
            continue
        term = frozenset({(0,) * nvars})
        for name, e in zip(names, exps):
            if e:
                term = f2_mul(term, f2_pow(images[name], e, nvars))
        out ^= term
    return out


def check_split_certificate(element, sequence, value, names, images, nvars):
    """A certified value must equal Q_seq(element) after restriction, and
    must restrict to a nonzero class (an independent proof it is nonzero)."""
    elem = _restrict(parse_poly(element, names, 2), names, images, nvars)
    got = _restrict(parse_poly(value, names, 2), names, images, nvars)
    want = elem
    for j in sequence:
        want = f2_q(j, want)
    problems = []
    if got != want:
        problems.append(f"Q{list(sequence)}({element}) restricts to a different class than {value}")
    elif not got:
        problems.append(f"Q{list(sequence)}({element}) = {value} restricts to 0")
    return problems


def so_images(rank):
    e, nv = det1_torus_images(rank)
    return {f"w{i}": e[i] for i in range(1, rank + 1)}, nv


# -- the quadric motive decomposition --------------------------------------------


def rost_ranks(n):
    """Even-degree integral ranks of the Rost motive with parameter n:
    free Z_2 in degrees 0 and 2^(n+1) - 2, F_2 torsion in degrees 4m, 1 <= m < 2^(n-1)."""
    out = {}
    for d in (0, 2 ** (n + 1) - 2):
        f, t = out.get(d, (0, 0))
        out[d] = (f + 1, t)
    for m in range(1, 2 ** (n - 1)):
        f, t = out.get(4 * m, (0, 0))
        out[4 * m] = (f, t + 1)
    return out


def quadric_ranks(n):
    """The anisotropic quadric of dimension 2^n - 1 decomposes as the
    parameter-n motive plus the parameter-(n-1) motive shifted by
    2, 4, .., 2^n - 2."""
    out = dict(rost_ranks(n))
    lower = rost_ranks(n - 1)
    for shift in range(2, 2**n - 1, 2):
        for d, (f, t) in lower.items():
            f0, t0 = out.get(d + shift, (0, 0))
            out[d + shift] = (f0 + f, t0 + t)
    return out


# -- per-output checks -------------------------------------------------------------

CERTIFIED = "not-in-strong-coniveau"


def op_degree(p, i):
    return 2 * p**i - 1


def check_exit(body, code):
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {body.get('error')}")
    if body.get("exit_code") != code:
        problems.append("exit_code field disagrees with the process exit code")
    return problems


def check_certificate(cert, p, degree=None, value_degree=None):
    """A certificate must be issued with a value of the right degree."""
    problems = []
    if cert["verdict"] != CERTIFIED:
        problems.append(f"{cert['element']}: verdict {cert['verdict']} ({cert.get('reason')})")
        return problems
    if degree is not None:
        want = degree + sum(op_degree(p, i) for i in cert["sequence"])
        if cert["value_degree"] != want:
            problems.append(f"{cert['element']}: value degree {cert['value_degree']} != {want}")
    if value_degree is not None and cert["value_degree"] != value_degree:
        problems.append(f"{cert['element']}: value degree {cert['value_degree']} != {value_degree}")
    if not cert["value"] or cert["value"] == "0":
        problems.append(f"{cert['element']}: certified with a zero value")
    return problems


def check_elementary_table(table, p, n):
    """Difference of coniveau filtrations for (Z/p)^n: exactly the
    2^n - n - 1 classes Q_0(x_I), |I| >= 2, all certified."""
    problems = []
    want = 2**n - n - 1
    rows = table["rows"]
    certified = [r for r in rows if r["certificate"]["verdict"] == CERTIFIED]
    if table["bound_kind"] != "equality":
        problems.append(f"elementary table has bound kind {table['bound_kind']}")
    if len(rows) != want or len(certified) != want:
        problems.append(f"elementary p={p} n={n}: {len(certified)}/{len(rows)} certified, want {want}")
    for r in certified:
        problems += check_certificate(r["certificate"], p, degree=r["degree"])
    return problems


def check_lower_bound_table(table, p):
    """Lower-bound tables: every certified row must carry a consistent value,
    and at least one row must be certified."""
    certified = [r for r in table["rows"] if r["certificate"]["verdict"] == CERTIFIED]
    problems = [] if certified else [f"{table['scenario']}: no certified row"]
    for r in certified:
        problems += check_certificate(r["certificate"], p, degree=r["degree"])
        if list(r["witness"]) != r["certificate"]["sequence"]:
            problems.append(f"{r['label']}: witness differs from the certificate sequence")
    return problems


def so_names(m):
    return [f"w{i}" for i in range(2, 2 * m + 2)]


SO_TORUS_RANK = 5  # keeps the check's polynomials small (4 variables)


def check_so_table(table, m):
    """SO(2m+1): the candidates are w_3, w_5, .., w_(2m+1); every certified
    value is recomputed on the determinant-1 sign torus of rank
    min(2m+1, SO_TORUS_RANK)."""
    problems = check_lower_bound_table(table, 2)
    labels = [r["label"] for r in table["rows"]]
    want = [f"w{2 * j + 1}" for j in range(1, m + 1)]
    if labels != want:
        problems.append(f"so(m={m}) candidates {labels} != {want}")
    rank = min(2 * m + 1, SO_TORUS_RANK)
    images, nv = so_images(rank)
    names = so_names(m)
    full = {n: images.get(n, frozenset()) for n in names}
    for r in table["rows"]:
        cert = r["certificate"]
        if cert["verdict"] == CERTIFIED:
            problems += check_split_certificate(r["label"], cert["sequence"], cert["value"], names, full, nv)
    return problems


def check_so_stable(sq, m):
    """The declared coniveau quotient of H*(BSO(2m+1)) is spanned by 1, w2, .., w2m."""
    flat = [b for layer in sq["basis"] for b in layer]
    want = ["1"] + [f"w{2 * k}" for k in range(1, m + 1)]
    if flat != want:
        return [f"so(m={m}) stable quotient {flat} != {want}"]
    return []


def check_wu(qop, m):
    """Q_0 = Sq^1 and Sq^1 w_2k = w_1 w_2k + w_(2k+1), so modulo w_1 the sum
    of the even classes maps to the sum of the following odd classes."""
    names = so_names(m)
    elem = parse_poly(qop["element"], names, 2)
    want = {}
    for exps in elem:
        (k,) = [i for i, e in enumerate(exps) if e]
        image = [0] * len(names)
        image[k + 1] = 1
        want[tuple(image)] = 1
    got = parse_poly(qop["value"], names, 2)
    return [] if got == want else [f"Q0({qop['element']}) = {qop['value']}, Wu rule gives otherwise"]


G2_NAMES = ["w4", "w6", "w7"]


def check_g2_certificate(cert):
    """The g2 value restricted to the rank-3 elementary abelian subgroup,
    where w4, w6, w7 become the Dickson invariants (an injective map)."""
    problems = check_certificate(cert, 2)
    if problems:
        return problems
    images, nv = dickson_images()
    element = cert["element"]
    return check_split_certificate(element, cert["sequence"], cert["value"], G2_NAMES, images, nv)


def check_quadric(body, n):
    """Rank tables equal the motive decomposition, every pure torsion power
    is rejected from the coniveau filtration, and the verdict is DH=0."""
    problems = []
    want = quadric_ranks(n)
    top = max(want)
    got = {r["degree"]: (r["free_rank"], r["torsion_dim"]) for r in body["rank_table"]}
    for d in range(0, max(top, max(got, default=0)) + 1, 2):
        if got.get(d, (0, 0)) != want.get(d, (0, 0)):
            problems.append(f"quadric n={n} degree {d}: ranks {got.get(d)} != {want.get(d, (0, 0))}")
    if body["rank_check"] != "ok":
        problems.append(f"quadric n={n}: rank check {body['rank_check']}")
    if body["dh_check"]["verdict"] != "DH=0":
        problems.append(f"quadric n={n}: verdict {body['dh_check']['verdict']}")
    if len(body["n1_checks"]) != 2 ** (n - 1) - 1 or any(c["in_n1"] is not False for c in body["n1_checks"]):
        problems.append(f"quadric n={n}: torsion generators not all rejected")
    torsion = len(body["rost_ring"]["torsion"])
    if torsion != 2 ** (n - 1) - 1:
        problems.append(f"rost n={n}: {torsion} torsion classes, want {2 ** (n - 1) - 1}")
    return problems


def check_pgl(cert, p):
    """For PGL_p the degree-3 class has value x_(2p+2) under Q_1."""
    problems = check_certificate(cert, p, value_degree=2 * p + 2)
    if cert["value"] != f"x{2 * p + 2}":
        problems.append(f"pgl p={p}: value {cert['value']} != x{2 * p + 2}")
    return problems


def check_series(got, want, what):
    if list(got) != list(want):
        return [f"{what}: series {list(got)} != {list(want)}"]
    return []


def check_extraspecial_e_low(dims, n):
    """Low degrees of F_p[y](x)Lambda(x) modulo (f, Q_0 f), |f| = 2, |Q_0 f| = 3:
    1, 2n, C(2n,2) + 2n - 1."""
    want = [1, 2 * n, (2 * n) * (2 * n - 1) // 2 + 2 * n - 1]
    return check_series(dims[:3], want, f"extraspecial-e n={n} low degrees")


def check_elementary_stable(sq, n):
    """The stable quotient of (Z/p)^n is the exterior algebra: dimension 2^n."""
    if sq["total_dimension"] != 2**n:
        return [f"elementary n={n}: stable quotient dimension {sq['total_dimension']} != {2 ** n}"]
    return []


def elementary_q1q0_pair(p):
    """Q_1 Q_0 (x_1 x_2) = y_1 y_2^p - y_1^p y_2 in F_p[y_1,y_2] (x) Lambda(x_1,x_2),
    as {exponents over (y1, y2, x1, x2): coefficient}."""
    return {(1, p, 0, 0): 1, (p, 1, 0, 0): p - 1}
