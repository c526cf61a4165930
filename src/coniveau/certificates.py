"""Scenario registry and the detection procedures.

A scenario packages a presented cohomology ring, an operation table, the
Chern-class flags and the declared coniveau inputs for one family of
classifying-space approximations.  ``Scenario`` and the projective-linear
label module ``QModuleScenario`` answer one protocol (``header``, ``verify``,
``dh_table``, ``stable_quotient``, ``hilbert``, ``qop``, ``report_section``),
and the ``FAMILIES`` table names each family's builder, its parameters and
its canonical instances.  ``Scenario.candidate`` turns text into a class,
and ``_detect_candidate`` issues machine-checkable certificates on such
candidates: a class is certified outside the strong coniveau filtration
when a strictly increasing operation sequence of the right length has a
nonzero value and the class survives the Chern-ideal test.

Two soundness points shape the implementation:

* The Chern-ideal survival test models the integral Chern ideal reduced
  mod p, i.e. the span of (single flagged classes) x (mod-p classes with
  zero Bockstein).  A flag is the reduction of an integral class, so Q_0
  kills it; Q_0 is a derivation, so its kernel is a subring and a product
  of several flags times a kernel class is already one flag times a kernel
  class.  A flag that Q_0 does not kill breaks this and is refused.
  Testing against the full mod-p ideal of the flags would wrongly swallow
  every Bockstein image (Q_0(x_i x_j) is an F_p combination of y_k-multiples
  even though it is not an integral Chern multiple), emptying the tables
  the procedure is meant to produce.

* For central-extension scenarios the operations act on the polynomial
  cover of the cohomology, not on the spectral-sequence page (the page
  ideal is not stable under the higher operations), and nonvanishing is
  certified through declared restriction maps: either to an elementary
  abelian subgroup ring, or to a comparison quotient whose kernel data is
  declared scenario input backed by the regular-sequence check.

A scenario's provenance hash (``content_hash``) is the sha256 of its
canonical text, taken from CPython's built-in module (``_sha2`` on 3.12 and
later, ``_sha256`` before): importing ``hashlib`` maps OpenSSL's libcrypto,
about 3.6 MiB of resident memory, into every command for one digest.  A
build that leaves the built-in module out falls back to ``hashlib``; the
digest is the same either way.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from itertools import combinations

try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:

        def sha256(data: bytes):
            """hashlib's sha256, for a build configured
            --with-builtin-hashlib-hashes that leaves sha256 out."""
            import hashlib

            return hashlib.sha256(data)


from . import fp
from .charclasses import g2_q_action, so_q_action
from .fp import (
    AlgebraMorphism,
    DegreeCapError,
    Element,
    Generator,
    GradedPresentation,
)
from .milnor import QAction
from .parser import ParseError, parse_expression, render_presentation

NOT_IN_STRONG_CONIVEAU = "not-in-strong-coniveau"
INCONCLUSIVE = "inconclusive"
REJECTED_CHERN = "rejected-chern"

_N1_TORSION = (
    "coniveau membership of the target class is declared scenario input "
    "(integral torsion classes lie in the first coniveau filtration)"
)


# The largest family parameters that answer.  The Chern flag w_(2m+1)^2 of
# so(m) has degree 4m + 2, and the splitting ring's cap is 64; the page of
# extraspecial-d(n) has cap 8 for n >= 3 and a generator of degree 2^n.
# extraspecial-e answers for every n, but its table grows with its n(2n - 1) - 1
# candidates: at p = 3 on 2 cores, n = 24 takes 7.8 s and 64 MiB, n = 28
# takes 13 s, and n = 40 did not finish in 2 minutes.  Every command on
# elementary builds its 2^n - n - 1 candidates first; the p = 2 table, the
# slowest prime's, takes 2.8 s and 92 MiB at n = 10 and 5.6 s and 149 MiB at
# n = 11 on 2 cores, and at n = 30 the candidates alone grew past 3 GiB.
MAX_SO_M = 15
MAX_EXTRASPECIAL_D_N = 3
MAX_EXTRASPECIAL_E_N = 24
MAX_ELEMENTARY_N = 10


class ScenarioError(fp.FpAlgebraError):
    pass


@dataclass(frozen=True)
class Certificate:
    """Verdict record for one (class, operation sequence) pair."""

    scenario: str
    element: str
    sequence: tuple[int, ...]
    value: str
    value_degree: int | None
    verdict: str
    via: str | None = None
    assumptions: tuple[str, ...] = ()
    audit: tuple[str, ...] = ()
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "element": self.element,
            "sequence": list(self.sequence),
            "value": self.value,
            "value_degree": self.value_degree,
            "verdict": self.verdict,
            "via": self.via,
            "assumptions": list(self.assumptions),
            "audit": list(self.audit),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class DhRow:
    label: str
    degree: int
    witness: tuple[int, ...] | None
    certificate: Certificate


@dataclass(frozen=True)
class DhTable:
    scenario: str
    bound_kind: str  # "equality" for a fully certified elementary abelian table, else "lower-bound"
    rows: tuple[DhRow, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "bound_kind": self.bound_kind,
            "rows": [
                {
                    "label": r.label,
                    "degree": r.degree,
                    "witness": list(r.witness) if r.witness else None,
                    "certificate": r.certificate.to_dict(),
                }
                for r in self.rows
            ],
        }


@dataclass(frozen=True)
class DhCandidate:
    label: str
    element: Element
    maps: tuple[tuple[str, AlgebraMorphism | None], ...] | None = None  # None -> scenario maps


@dataclass
class Scenario:
    """All data needed to run detections for one group family."""

    name: str
    kind: str
    group: str
    presentation: GradedPresentation
    detect_pres: GradedPresentation
    q_action: QAction | None
    chern_flags: dict = field(default_factory=dict)
    stable_top: int = 0
    stable_declared_basis: tuple[str, ...] | None = None
    stable_note: str = ""
    declared_n1: dict = field(default_factory=dict)
    # zero-argument builders of the parts built on first read, each once per
    # instance (a dataclasses.replace copy builds them again): the candidate
    # family (dh_candidates), the aliases and the stable quotient ring
    # (stable_pres; no builder, no stable structure).  Nothing content_hash
    # reads is among them.
    build_candidates: Callable[[], tuple[DhCandidate, ...]] = field(
        default=tuple, repr=False, compare=False
    )
    build_aliases: Callable[[], dict] = field(default=dict, repr=False, compare=False)
    build_stable: Callable[[], GradedPresentation] | None = field(
        default=None, repr=False, compare=False
    )
    default_target: tuple[str, tuple[int, ...] | None] = ("", None)
    restriction: tuple | None = None  # (target Scenario, AlgebraMorphism, note)
    canonical_text: str = ""  # a presentation file's rendered text, hashed as is
    # degree -> that degree's Chern span (``fp.span_echelon``, None when
    # empty), valid while the flags and the operation table stay as built;
    # not an init field, so dataclasses.replace starts a copy with an empty
    # cache
    _chern_spans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def prime(self) -> int:
        return self.presentation.prime

    @cached_property
    def dh_candidates(self) -> tuple[DhCandidate, ...]:
        """The candidate family, built on first read: most commands read none."""
        return tuple(self.build_candidates())

    @cached_property
    def aliases(self) -> dict:
        """Names for classes of the detection ring, built on first read."""
        return self.build_aliases()

    @cached_property
    def stable_pres(self) -> GradedPresentation | None:
        """The stable quotient ring, built on first read; None when the
        scenario declares no stable structure."""
        return self.build_stable() if self.build_stable is not None else None

    def candidate(self, text: str) -> DhCandidate:
        """The class a name, alias or expression names, without building the
        family; only text that does not parse is looked up among the candidate
        labels (``Q0(x1*x3)``), which bring their declared maps.  A built-in
        label that parses names its candidate's element and declares no maps."""
        names = {g.name: self.detect_pres.gen(g.name) for g in self.detect_pres.generators}
        names.update(self.aliases)
        try:
            return DhCandidate(text, parse_expression(self.detect_pres, names, text))
        except ParseError:
            for cand in self.dh_candidates:
                if cand.label == text:
                    return cand
            raise

    def resolve(self, text: str) -> Element:
        """An element of the detection ring from a name, expression or label."""
        return self.candidate(text).element

    @property
    def max_search_index(self) -> int:
        """Largest operation index a witness search tries: the operation
        table's, or the restriction target's bound."""
        if self.restriction is not None:
            return self.restriction[0].max_search_index
        return self.q_action.max_index if self.q_action is not None else 0

    @property
    def nonvanish_maps(self) -> tuple:
        """Maps that certify a nonzero value for candidates without their
        own: the scenario ring itself, unless detection runs on a cover."""
        return (("scenario ring", None),) if self.detect_pres is self.presentation else ()

    def n1_assumption(self, label: str) -> str:
        return self.declared_n1.get(label, _N1_TORSION)

    def content_hash(self) -> str:
        """Provenance hash: a presentation file's canonical text, which holds
        every line the parser read; for a built-in, its ring, Chern flags and
        family fields."""
        text = self.canonical_text
        if not text:
            text = render_presentation(
                self.presentation,
                chern={k: v for k, v in sorted(self.chern_flags.items())},
            )
            text += f"kind {self.kind}\nprime {self.prime}\nmax_index {self.max_search_index}\n"
        return sha256(text.encode()).hexdigest()[:16]

    # -- the scenario protocol: the views the CLI and the report ask for ------

    def header(self) -> dict:
        return {
            "name": self.name,
            "group": self.group,
            "prime": self.prime,
            "cap": self.presentation.degree_cap,
            "hash": self.content_hash(),
        }

    def verify(self, element: str | None, sequence) -> Certificate:
        """Certificate for a named class, or for the flagship target."""
        if element and sequence is None:
            raise ScenarioError("--element requires --I")
        label, default_seq = (element, None) if element else self.default_target
        if not label:
            raise ScenarioError("scenario has no default target; pass --element and --I")
        seq = tuple(sequence) if sequence is not None else default_seq
        if self.q_action is None and self.restriction is None:
            # refused before the class is read, whatever the text names
            return _inconclusive(self, label, seq, "scenario carries no operation table")
        cand = self.candidate(label)
        if seq is None:
            return search_witness(self, cand)
        if self.restriction is not None:
            return _restricted(self, label, _detect_candidate(*_restrict(self, cand), seq))
        return _detect_candidate(self, cand, seq)

    def dh_table(self, cap: int | None = None) -> DhTable:
        """Certificate table over the candidate family, up to degree ``cap``."""
        _check_cap("dh-table", cap)
        if not self.dh_candidates:
            raise ScenarioError(f"scenario {self.name} has no candidate family")
        rows = []
        limit = cap if cap is not None else self.detect_pres.degree_cap
        skipped = False
        for cand in self.dh_candidates:
            degree = cand.element.degree()
            if degree > limit:
                skipped = True
                continue
            cert = search_witness(self, cand)
            witness = cert.sequence if cert.verdict == NOT_IN_STRONG_CONIVEAU else None
            rows.append(DhRow(cand.label, degree, witness, cert))
        # an elementary abelian table is an equality only when it has a row for
        # every candidate and every row is certified; a candidate left out above
        # the cap, or a row without a witness, leaves it a lower bound
        complete = not skipped and all(r.witness is not None for r in rows)
        bound = "equality" if self.kind == "elementary" and complete else "lower-bound"
        return DhTable(scenario=self.name, bound_kind=bound, rows=tuple(rows))

    def stable_quotient(self) -> StableQuotient:
        """Graded basis of the ring modulo the declared coniveau ideal."""
        if self.stable_pres is None:
            raise ScenarioError(f"scenario {self.name} declares no stable structure")
        # lowest degree first, each degree's monomial list is held to its
        # budget before the degree's basis step; every degree is listed, and
        # any refusal made, before a basis element is formatted
        pres, degrees = self.stable_pres, range(self.stable_top + 1)
        dims = tuple(len(pres.standard_monomials(d)) for d in degrees)
        basis = tuple(tuple(str(b) for b in pres.graded_basis(d)) for d in degrees)
        return StableQuotient(
            scenario=self.name,
            dims=dims,
            basis=basis,
            total_dimension=sum(dims),
            note=self.stable_note,
            declared=self.stable_declared_basis,
        )

    def hilbert(self, cap: int | None = None) -> dict:
        pres = self.presentation
        cap = cap if cap is not None else min(pres.degree_cap, 12)
        _check_cap("hilbert", cap)
        if cap > pres.degree_cap:
            raise ScenarioError(f"cap {cap} exceeds the scenario maximum {pres.degree_cap}")
        return {"cap": cap, "dimensions": pres.hilbert_series(cap)}

    def qop(self, element: str | None, sequence) -> dict:
        """Q-operation sequence applied to a class, with the intermediates."""
        if self.q_action is None:
            raise ScenarioError("scenario carries no operation table")
        if not element or sequence is None:
            raise ScenarioError("qop requires --element and --I")
        e = self.resolve(element)
        value, trail = self.q_action.apply_sequence(sequence, e)
        return {
            "element": str(e),
            "sequence": list(sequence),
            "value": str(value),
            "intermediates": [str(t) for t in trail],
        }

    def report_section(self) -> tuple[dict, list[str]]:
        """The scenario's part of the full report, and its failed checks."""
        cert = self.verify(None, None)
        section = {"scenario": self.header(), "verify": cert.to_dict()}
        problems = []
        if cert.verdict != NOT_IN_STRONG_CONIVEAU:
            problems.append("flagship certificate not issued")
        if self.dh_candidates:
            section["dh_table"] = self.dh_table().to_dict()
        if self.stable_pres is not None:
            sq = self.stable_quotient()
            section["stable_quotient"] = sq.to_dict()
            if sq.declared is not None:
                if tuple(b for layer in sq.basis for b in layer) != sq.declared:
                    problems.append("stable quotient differs from declared basis")
        if self.restriction is None:
            hcap = min(self.presentation.degree_cap, 10)
            section["hilbert"] = self.presentation.hilbert_series(hcap)
        return section, problems


def _check_cap(command: str, cap: int | None) -> None:
    if cap is not None and cap < 0:
        raise ScenarioError(f"{command} takes no --cap {cap}: --cap is a degree, at least 0")


def required_length(degree: int) -> int | None:
    """Length of a witnessing sequence for a degree-d class (indices >= 1,
    strictly increasing): single operation in degrees 3 and 4, d - 3 above."""
    if degree < 3:
        return None
    return 1 if degree in (3, 4) else degree - 3


# -- Chern-ideal machinery -----------------------------------------------------


def q0_kernel_basis(scenario: Scenario, degree: int) -> list[Element]:
    """Basis of the Bockstein kernel in one degree of the detection ring
    (the mod-p image of the integral classes for exponent-p torsion)."""
    pres = scenario.detect_pres
    if degree == 0:
        return [pres.one()]
    basis = pres.graded_basis(degree)
    if not basis:
        return []
    if scenario.q_action is None:
        raise ScenarioError("no operation table on the detection ring")
    return fp.kernel(basis, [scenario.q_action.apply(0, b) for b in basis])


def chern_survival(scenario: Scenario, e: Element) -> bool:
    """True when e is NOT in the mod-p image of the integral Chern ideal
    (the span of single flagged classes times Bockstein-kernel classes).

    Refuses a flag of degree at most |e| that Q_0 does not kill: only for
    such a flag would products of flags span more than single flags.  The
    flags are checked on every call; the span's echelon form
    (``fp.span_echelon``) is built once per degree, and each class costs
    one ``fp.in_span``."""
    if e.is_zero():
        return False
    d = e.degree()
    by_degree: dict[int, list[Element]] = {}
    for name, f in sorted(scenario.chern_flags.items()):
        fd = f.degree()
        if fd is None or fd > d:  # a zero flag spans nothing
            continue
        if scenario.q_action is None:
            raise ScenarioError("no operation table on the detection ring")
        if not scenario.q_action.apply(0, f).is_zero():
            raise ScenarioError(f"Chern flag {name} = {f} is not killed by Q_0")
        by_degree.setdefault(fd, []).append(f)
    if d not in scenario._chern_spans:
        span = [
            fk
            for fd, flags in by_degree.items()
            for k in q0_kernel_basis(scenario, d - fd)
            for f in flags
            if not (fk := f * k).is_zero()
        ]
        scenario._chern_spans[d] = fp.span_echelon(scenario.detect_pres, d, span) if span else None
    span = scenario._chern_spans[d]
    return span is None or not fp.in_span(e, span)


# -- detection -----------------------------------------------------------------


def _detect_candidate(scenario: Scenario, cand: DhCandidate, sequence) -> Certificate:
    """Run the decision procedure on one homogeneous class.

    Verdict ``not-in-strong-coniveau`` requires: a strictly increasing
    sequence of indices >= 1 whose length matches the class degree, a
    nonzero value certified in a declared ring (the candidate's maps, else
    the scenario's), and survival of the class modulo the Chern ideal.
    Cap overflows and uncertified values are reported as inconclusive, never
    as passes.  The scenario has an operation table; ``verify`` and
    ``search_witness`` pass a restriction scenario's classes to its target.
    """
    label = cand.label
    sequence = tuple(sequence)
    alpha = cand.element
    if alpha.is_zero() or not alpha.is_homogeneous():
        return _inconclusive(scenario, label, sequence, "target class must be nonzero homogeneous")
    d = alpha.degree()

    if scenario.chern_flags:
        try:
            survives = chern_survival(scenario, alpha)
        except DegreeCapError as exc:
            return _inconclusive(scenario, label, sequence, f"Chern test exceeds cap: {exc}")
        if not survives:
            return Certificate(
                scenario=scenario.name,
                element=label,
                sequence=sequence,
                value="",
                value_degree=None,
                verdict=REJECTED_CHERN,
                reason="class lies in the mod-p image of the integral Chern ideal",
            )

    problem = _sequence_problem(d, sequence)
    if problem:
        return _inconclusive(scenario, label, sequence, problem)

    try:
        value, trail = scenario.q_action.apply_sequence(sequence, alpha)
    except DegreeCapError as exc:
        return _inconclusive(scenario, label, sequence, f"degree cap overflow: {exc}")

    if value.is_zero():
        return _inconclusive(
            scenario, label, sequence, "operation value is zero", trail=trail
        )

    via = _certify_nonzero(scenario, cand.maps, value)
    if via is None:
        return _inconclusive(
            scenario,
            label,
            sequence,
            "value is nonzero in the cover but no declared restriction certifies it",
            trail=trail,
        )

    assumptions = [scenario.n1_assumption(label)]
    if via != "scenario ring":
        assumptions.append(f"nonvanishing certified via {via}")
    return Certificate(
        scenario=scenario.name,
        element=label,
        sequence=sequence,
        value=str(value),
        value_degree=value.degree(),
        verdict=NOT_IN_STRONG_CONIVEAU,
        via=via,
        assumptions=tuple(assumptions),
        audit=tuple(str(t) for t in trail),
    )


def _sequence_problem(degree: int, sequence: tuple[int, ...]) -> str | None:
    need = required_length(degree)
    if need is None:
        return f"no detection rule for classes of degree {degree}"
    if len(sequence) != need:
        return f"degree-{degree} classes need a sequence of length {need}, got {len(sequence)}"
    if any(i < 1 for i in sequence):
        return "operation indices in a witness must be >= 1"
    if any(a >= b for a, b in zip(sequence, sequence[1:])):
        return "witness indices must be strictly increasing"
    return None


def _certify_nonzero(scenario: Scenario, candidate_maps, value: Element) -> str | None:
    maps = candidate_maps if candidate_maps is not None else scenario.nonvanish_maps
    for name, morphism in maps:
        if not (value if morphism is None else morphism(value)).is_zero():
            return name
    return None


def _inconclusive(scenario, label, sequence, reason, trail=()) -> Certificate:
    return Certificate(
        scenario=scenario.name,
        element=label,
        sequence=tuple(sequence),
        value=str(trail[-1]) if trail else "",
        value_degree=None,
        verdict=INCONCLUSIVE,
        audit=tuple(str(t) for t in trail),
        reason=reason,
    )


def _restrict(scenario: Scenario, cand: DhCandidate) -> tuple[Scenario, DhCandidate]:
    """The restriction target and the candidate's image there, labelled by
    the image's text: the target declares its inputs under that name (g2's
    ``declared_n1`` names ``w4``), and the image uses the target's maps."""
    target, morphism, _ = scenario.restriction
    image = morphism(cand.element)
    return target, DhCandidate(str(image), image)


def _restricted(scenario: Scenario, label: str, inner: Certificate) -> Certificate:
    """Reissue a certificate of the restriction target for the scenario."""
    target, _, note = scenario.restriction
    return replace(
        inner,
        scenario=scenario.name,
        element=label,
        via=f"restriction to {target.name}" + (f"; {inner.via}" if inner.via else ""),
        assumptions=(scenario.n1_assumption(label), note) + inner.assumptions,
    )


def search_witness(scenario: Scenario, cand: DhCandidate) -> Certificate:
    """First certificate over ascending lexicographic index tuples of the
    required length, bounded by the scenario's operation table and cap."""
    if scenario.restriction is not None:
        return _restricted(scenario, cand.label, search_witness(*_restrict(scenario, cand)))
    d = cand.element.degree()
    need = required_length(d)
    if need is None:
        return _inconclusive(scenario, cand.label, (), f"no detection rule in degree {d}")
    last = None
    for seq in combinations(range(1, scenario.max_search_index + 1), need):
        cert = _detect_candidate(scenario, cand, seq)
        if cert.verdict in (NOT_IN_STRONG_CONIVEAU, REJECTED_CHERN):
            return cert
        last = cert
    if last is None:
        return _inconclusive(
            scenario, cand.label, (),
            f"no index sequence of length {need} within the operation table",
        )
    return _inconclusive(
        scenario, cand.label, (),
        "no witnessing sequence found within the table and cap",
    )


# -- stable quotients ------------------------------------------------------------


@dataclass(frozen=True)
class StableQuotient:
    scenario: str
    dims: tuple[int, ...]
    basis: tuple[tuple[str, ...], ...]
    total_dimension: int
    note: str
    declared: tuple[str, ...] | None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "dims": list(self.dims),
            "basis": [list(b) for b in self.basis],
            "total_dimension": self.total_dimension,
            "note": self.note,
            "declared": list(self.declared) if self.declared else None,
        }


# -- ring builders for the central-extension scenarios ---------------------------


def _elementary_pres(p: int, n: int, cap: int) -> GradedPresentation:
    """The rank-n elementary abelian ring Z/p[y_1..y_n] (x) Lambda(x_1..x_n)
    (p odd) or F_2[x_1..x_n] (p = 2); at rank 2n it is the polynomial cover
    of the central-extension cohomology."""
    if p == 2:
        return GradedPresentation(2, [Generator(f"x{i}", 1) for i in range(1, n + 1)], cap)
    gens = [Generator(f"y{i}", 2) for i in range(1, n + 1)]
    gens += [Generator(f"x{i}", 1) for i in range(1, n + 1)]
    return GradedPresentation(p, gens, cap)


def symplectic_form(pres: GradedPresentation, n: int) -> Element:
    """f = sum x_(2i-1) x_(2i)."""
    f = pres.zero()
    for i in range(1, n + 1):
        f = f + pres.gen(f"x{2 * i - 1}") * pres.gen(f"x{2 * i}")
    return f


def _abelian_q_action(pres: GradedPresentation, max_index: int) -> QAction:
    """Closed-form table: Q_i(x_j) is the p^i-th power of the Bockstein
    image of x_j; Q_i vanishes on the Bockstein images."""
    p = pres.prime

    def supplier(i: int, gname: str) -> Element:
        if gname.startswith("y"):
            return pres.zero()
        j = gname[1:]
        if p == 2:
            return pres.gen(f"x{j}") ** (2 ** (i + 1))
        return pres.gen(f"y{j}") ** (p**i)

    return QAction(pres, max_index=max_index, supplier=supplier)


def extraspecial_e4(n: int, p: int, cap: int | None = None) -> GradedPresentation:
    """Quotient of the cover by (f, Q_0 f): the stable page of the central
    extension."""
    if p == 2:
        raise ScenarioError("the stable-page builder expects an odd prime")
    cap = cap if cap is not None else (12 if n <= 2 else 6)
    cover = _elementary_pres(p, 2 * n, max(cap, 8))
    action = _abelian_q_action(cover, 2)
    f = symplectic_form(cover, n)
    q0f = action.apply(0, f)
    return GradedPresentation(p, cover.generators, cap).quotient([f, q0f])


def quillen_d_ring(n: int, cap: int | None = None) -> GradedPresentation:
    """F_2[x_1..x_2n]/(f, Q_0 f, .., Q_(n-2) f) (x) F_2[w_(2^n)]."""
    cap = cap if cap is not None else (12 if n <= 2 else 8)
    gens = [Generator(f"x{i}", 1) for i in range(1, 2 * n + 1)]
    gens.append(Generator(f"w{2 ** n}", 2**n))
    base = GradedPresentation(2, gens, cap)
    cover = _elementary_pres(2, 2 * n, cap)
    action = _abelian_q_action(cover, max(n - 2, 0))
    f = symplectic_form(cover, n)
    rels = [f] + [action.apply(i, f) for i in range(0, n - 1)]
    return base.quotient([base.element({m + (0,): c for m, c in r.terms.items()}) for r in rels])


@lru_cache(maxsize=None)
def symplectic_comparison(p: int = 3, cap: int = 40):
    """The rank-2 comparison quotient: F_p[y_1..y_4] (x) Lambda(x_1..x_4)
    modulo (Q_1 Q_0 f, Q_2 Q_0 f).

    The kernel data is declared scenario input; the regular-sequence check
    (``comparison_regular_pair``) supports it degreewise.
    """
    cover = _elementary_pres(p, 4, cap)
    action = _abelian_q_action(cover, 2)
    f = symplectic_form(cover, 2)
    q0f = action.apply(0, f)
    g1 = action.apply(1, q0f)
    g2 = action.apply(2, q0f)
    ring = cover.quotient([g1, g2])
    return ring, (g1, g2)


def comparison_regular_pair(p: int = 3, cap: int = 40):
    """Regular-sequence report for the comparison kernel generators inside
    the polynomial subring on the Bockstein images."""
    _, (g1, g2) = symplectic_comparison(p)
    ypres = GradedPresentation(p, [Generator(f"y{i}", 2) for i in range(1, 5)], cap)
    moved = []
    for g in (g1, g2):
        terms = {}
        for m, c in g.terms.items():
            if any(m[4:]):
                raise ScenarioError("comparison generators must be x-free")
            terms[m[:4]] = c
        moved.append(ypres.element(terms))
    report = fp.regular_sequence_check(ypres, moved, cap)
    return report, ypres.quotient(moved), moved


# -- the projective-linear label module -------------------------------------------


@dataclass(frozen=True)
class QModuleScenario:
    """Free module over Z/p[x_(2p+2), x_(2p^2-2p)] on the labels u2, Q0u2,
    Q1u2, Q1Q0u2, with the top label identified with x_(2p+2).

    It answers the same calls as ``Scenario``; the views it lacks (stable
    quotient, Hilbert series, free operation sequences) raise ScenarioError.
    """

    p: int

    @property
    def name(self) -> str:
        return f"pgl(p={self.p})"

    def apply(self, i: int, labels: dict) -> dict:
        """Q_i on an F_p combination of labels (coefficients mod p)."""
        if i not in (0, 1):
            raise ScenarioError("the label module only carries Q_0 and Q_1")
        p = self.p
        out: dict[str, int] = {}

        def put(label, c):
            v = (out.get(label, 0) + c) % p
            if v:
                out[label] = v
            else:
                out.pop(label, None)

        for label, c in labels.items():
            if i == 0 and label == "u2":
                put("Q0u2", c)
            elif i == 0 and label == "Q1u2":
                put("Q1Q0u2", -c)
            elif i == 1 and label == "u2":
                put("Q1u2", c)
            elif i == 1 and label == "Q0u2":
                put("Q1Q0u2", c)
            # Q_i kills Q1Q0u2 (top label) and repeated indices
        return out

    def identification(self) -> str:
        return f"Q1Q0u2 = x{2 * self.p + 2}"

    # -- the scenario protocol: only the Q0u2 certificate and its table row ----

    def header(self) -> dict:
        return {"name": self.name, "prime": self.p, "hash": f"pgl-{self.p}"}

    def verify(self, element: str | None, sequence) -> Certificate:
        if element not in (None, "Q0u2"):
            raise ScenarioError(f"the label-module scenario certifies Q0u2 only, not {element!r}")
        if sequence not in (None, (1,)):
            raise ScenarioError("the label-module certificate uses the sequence 1 only")
        return pgl_detect(self)

    def dh_table(self, cap: int | None = None) -> DhTable:
        _check_cap("dh-table", cap)
        rows = ()
        if cap is None or cap >= 3:
            cert = pgl_detect(self)
            rows = (DhRow("Q0u2", 3, cert.sequence, cert),)
        return DhTable(scenario=self.name, bound_kind="lower-bound", rows=rows)

    def stable_quotient(self):
        raise ScenarioError("the label-module scenario has no stable quotient")

    def hilbert(self, cap=None):
        raise ScenarioError("the label-module scenario has no graded presentation")

    def qop(self, element, sequence):
        raise ScenarioError("use `verify` for the label-module scenario")

    def report_section(self) -> tuple[dict, list[str]]:
        # the flagship certificate only: no table, quotient or series
        cert = pgl_detect(self)
        problems = []
        if cert.verdict != NOT_IN_STRONG_CONIVEAU:
            problems.append("flagship certificate not issued")
        return {"scenario": self.header(), "verify": cert.to_dict()}, problems


def pgl_detect(module: QModuleScenario) -> Certificate:
    """Certificate for the degree-3 label: one further operation lands on
    the top label, identified with the polynomial generator x_(2p+2)."""
    p = module.p
    value = module.apply(1, {"Q0u2": 1})
    if value != {"Q1Q0u2": 1}:
        raise ScenarioError(f"Q1(Q0u2) = {value}, expected the top label Q1Q0u2")
    witness = f"x{2 * p + 2}"
    return Certificate(
        scenario=module.name,
        element="Q0u2",
        sequence=(1,),
        value=witness,
        value_degree=2 * p + 2,
        verdict=NOT_IN_STRONG_CONIVEAU,
        via=f"label module ({module.identification()})",
        assumptions=(
            _N1_TORSION,
            "the top label is a polynomial generator of the cohomology, hence nonzero",
        ),
        audit=("Q1Q0u2",),
    )


# -- builtin scenarios ---------------------------------------------------------------


@lru_cache(maxsize=None)
def elementary_abelian(p: int, n: int, cap: int = 40) -> Scenario:
    fp.check_prime(p)
    if n < 1:
        raise ScenarioError("rank must be >= 1")
    if n > MAX_ELEMENTARY_N:
        raise ScenarioError(
            f"elementary takes no --n {n}: --n is at most {MAX_ELEMENTARY_N}, a bound "
            f"on run time, and the table would have {2**n - n - 1} candidates"
        )
    pres = _elementary_pres(p, n, cap)
    max_index = 1
    while 2 * p ** (max_index + 1) <= cap and max_index < 4:
        max_index += 1
    action = _abelian_q_action(pres, max_index)
    chern = {
        f"y{i}": pres.gen(f"x{i}") ** 2 if p == 2 else pres.gen(f"y{i}") for i in range(1, n + 1)
    }
    return Scenario(
        name=f"elementary(p={p},n={n})",
        kind="elementary",
        group=f"rank-{n} elementary abelian {p}-group",
        presentation=pres,
        detect_pres=pres,
        q_action=action,
        chern_flags=chern,
        stable_top=n,
        stable_note="quotient by the ideal of the degree-2 Chern classes",
        build_candidates=partial(_elementary_candidates, pres, action, n),
        build_aliases=partial(_elementary_aliases, pres, action, n, chern),
        build_stable=partial(_elementary_stable, p, n),
        default_target=("alpha", None),
    )


def _elementary_aliases(pres: GradedPresentation, action: QAction, n: int, chern: dict) -> dict:
    """alpha = Q_0(x_1 ... x_n), and at p = 2 the flags y_i = x_i^2."""
    aliases = dict(chern) if pres.prime == 2 else {}
    top = pres.one()
    for i in range(1, n + 1):
        top = top * pres.gen(f"x{i}")
    aliases["alpha"] = action.apply(0, top)
    return aliases


def _elementary_candidates(pres: GradedPresentation, action: QAction, n: int) -> tuple:
    """Q_0(x_S) for every subset S of at least two of the n exterior slots."""
    candidates = []
    for size in range(2, n + 1):
        for subset in combinations(range(1, n + 1), size):
            mono = pres.one()
            for i in subset:
                mono = mono * pres.gen(f"x{i}")
            label = "Q0(" + "*".join(f"x{i}" for i in subset) + ")"
            candidates.append(DhCandidate(label, action.apply(0, mono)))
    return tuple(candidates)


def _elementary_stable(p: int, n: int) -> GradedPresentation:
    cap = max(n, 1)
    if p == 2:
        pres = GradedPresentation(2, [Generator(f"x{i}", 1) for i in range(1, n + 1)], cap + 2)
        return pres.quotient([pres.gen(f"x{i}") ** 2 for i in range(1, n + 1)])
    return GradedPresentation(p, [Generator(f"x{i}", 1) for i in range(1, n + 1)], cap)


@lru_cache(maxsize=None)
def so_odd(m: int, cap: int = 64) -> Scenario:
    if m < 1:
        raise ScenarioError("m must be >= 1")
    if m > MAX_SO_M:
        raise ScenarioError(
            f"so takes no --m {m}: --m is at most {MAX_SO_M}, since the Chern flag "
            f"w{2 * m + 1}^2 of degree {4 * m + 2} must fit the splitting ring's degree cap 64"
        )
    rank = 2 * m + 1
    pres, action = so_q_action(rank, cap=cap, max_index=3)
    chern = {f"c{i}": pres.gen(f"w{i}") ** 2 for i in range(2, rank + 1)}
    declared_basis = ("1",) + tuple(f"w{2 * k}" for k in range(1, m + 1))
    return Scenario(
        name=f"so(m={m})",
        kind="so",
        group=f"special orthogonal group of rank {rank}",
        presentation=pres,
        detect_pres=pres,
        q_action=action,
        chern_flags=chern,
        stable_top=2 * m,
        stable_note="declared coniveau ideal: all products and the odd classes",
        stable_declared_basis=declared_basis,
        build_aliases=chern.copy,
        build_stable=partial(_so_stable, pres, rank),
        build_candidates=lambda: tuple(
            DhCandidate(f"w{2 * j + 1}", pres.gen(f"w{2 * j + 1}")) for j in range(1, m + 1)
        ),
        default_target=("w3", (1,)),
    )


def _so_stable(pres: GradedPresentation, rank: int) -> GradedPresentation:
    """The ring modulo every product w_i w_j within the cap and the odd w_i."""
    w = {i: pres.gen(f"w{i}") for i in range(2, rank + 1)}
    rels = [w[i] * w[j] for i in w for j in w if i <= j and i + j <= pres.degree_cap]
    return pres.quotient(rels + [w[i] for i in range(3, rank + 1, 2)])


@lru_cache(maxsize=None)
def g2_scenario(cap: int = 40) -> Scenario:
    pres, action = g2_q_action(cap=cap, max_index=2)
    chern = {f"c{i}": pres.gen(f"w{i}") ** 2 for i in (4, 6, 7)}
    return Scenario(
        name="g2",
        kind="g2",
        group="compact exceptional group of rank 2",
        presentation=pres,
        detect_pres=pres,
        q_action=action,
        chern_flags=chern,
        build_aliases=chern.copy,
        declared_n1={
            "w4": "twice the degree-4 class is a Chern class, so the class is "
            "integrally torsion on the complement; coniveau membership is declared input"
        },
        build_candidates=lambda: (
            DhCandidate("w4", pres.gen("w4")),
            DhCandidate("w7", pres.gen("w7")),
            DhCandidate("w4*w7", pres.gen("w4") * pres.gen("w7")),
        ),
        default_target=("w4", (1,)),
    )


@lru_cache(maxsize=None)
def simply_connected(p: int) -> Scenario:
    fp.check_prime(p)
    source = GradedPresentation(p, [Generator("w", 4)], 16)
    if p == 2:
        target = g2_scenario()
        image = target.presentation.gen("w4")
        note = (
            "restriction to the rank-2 exceptional subgroup sends the degree-4 "
            "class to w4 (declared input)"
        )
    elif p in (3, 5):
        target = elementary_abelian(p, 3)
        image = target.resolve("alpha")
        note = (
            "restriction to a rank-3 elementary abelian subgroup sends the "
            "degree-4 class to the Bockstein of the top exterior monomial (declared input)"
        )
    else:
        raise ScenarioError("simply connected scenarios exist for p in {2, 3, 5}")
    morphism = AlgebraMorphism(source, target.detect_pres, {"w": image})
    return Scenario(
        name=f"simply-connected(p={p})",
        kind="simply-connected",
        group=f"simply connected simple group with {p}-torsion",
        presentation=source,
        detect_pres=source,
        q_action=None,
        declared_n1={
            "w": "p times the degree-4 class is a Chern class, hence the class is "
            "p-torsion away from a divisor; coniveau membership is declared input"
        },
        build_candidates=lambda: (DhCandidate("w", source.gen("w")),),
        default_target=("w", (1,)),
        restriction=(target, morphism, note),
    )


def _pair_maps(cover: GradedPresentation, i: int, j: int):
    """Declared nonvanishing maps for the candidate Q_0(x_i x_j): a
    projection that keeps the generators x_k, y_k for k in a slot map
    {cover index: target index} and sends the rest to zero.

    A commuting pair restricts to the abelian subgroup on (i, j), whose ring
    is the cover's subring on x_i, x_j, y_i, y_j, so the target is the cover
    itself.  A symplectic pair (2k - 1, 2k) maps to the comparison quotient
    on the slots 1, 2, i, j, declared at odd p only."""
    if i % 2 == 0 or j != i + 1:
        target, slots = cover, {i: i, j: j}
        via = f"restriction to the abelian subgroup on ({i},{j})"
    elif cover.prime == 2:
        return ()  # no declared comparison at p = 2: rows stay inconclusive
    else:
        target, _ = symplectic_comparison(cover.prime, cap=cover.degree_cap)
        slots = {1: 1, 2: 2, i: 3, j: 4}
        via = "comparison quotient with declared kernel (regular pair)"
    zero = target.zero()
    images = {}
    for g in cover.generators:
        slot = slots.get(int(g.name[1:]))
        images[g.name] = zero if slot is None else target.gen(f"{g.name[0]}{slot}")
    return ((via, AlgebraMorphism(cover, target, images)),)


def _pair_candidates(cover: GradedPresentation, action: QAction, n: int) -> tuple:
    """Q_0(x_i x_j) for i < j, except the symplectic pair (1, 2), each with
    its declared nonvanishing maps."""
    return tuple(
        DhCandidate(
            f"Q0(x{i}*x{j})",
            action.apply(0, cover.gen(f"x{i}") * cover.gen(f"x{j}")),
            maps=_pair_maps(cover, i, j),
        )
        for i, j in combinations(range(1, 2 * n + 1), 2)
        if (i, j) != (1, 2)
    )


@lru_cache(maxsize=None)
def extraspecial_e(n: int, p: int = 3, cap: int = 24) -> Scenario:
    fp.check_prime(p)
    if p == 2:
        raise ScenarioError("use the dihedral-type builder at p = 2")
    if 2 * p**2 + 2 > cap:
        raise ScenarioError(
            f"extraspecial-e takes no --p {p}: the cover's degree cap is {cap}, and Q_2 "
            f"on the degree-3 candidates needs degree 2p^2+2 = {2 * p**2 + 2}"
        )
    if n < 2:
        raise ScenarioError("n must be >= 2 (the rank-1 case has no degree-3 table)")
    if n > MAX_EXTRASPECIAL_E_N:
        raise ScenarioError(
            f"extraspecial-e takes no --n {n}: --n is at most {MAX_EXTRASPECIAL_E_N}, a bound "
            f"on run time, and the table would have {n * (2 * n - 1) - 1} candidates"
        )
    cover = _elementary_pres(p, 2 * n, cap)
    action = _abelian_q_action(cover, 2)
    page = extraspecial_e4(n, p)
    return Scenario(
        name=f"extraspecial-e(n={n},p={p})",
        kind="extraspecial-e",
        group=f"extraspecial {p}-group of order p^(1+{2 * n}), exponent p",
        presentation=page,
        detect_pres=cover,
        q_action=action,
        chern_flags={f"y{i}": cover.gen(f"y{i}") for i in range(1, 2 * n + 1)},
        stable_top=2 * n,
        stable_note="exterior classes modulo the symplectic form",
        build_candidates=partial(_pair_candidates, cover, action, n),
        build_stable=partial(_lambda_mod_f, n, p),
        default_target=("Q0(x1*x3)", (1,)),
    )


def _lambda_mod_f(n: int, p: int) -> GradedPresentation:
    cap = 2 * n + 1
    if p == 2:
        pres = GradedPresentation(2, [Generator(f"x{i}", 1) for i in range(1, 2 * n + 1)], cap)
        rels = [pres.gen(f"x{i}") ** 2 for i in range(1, 2 * n + 1)]
        rels.append(symplectic_form(pres, n))
        return pres.quotient(rels)
    pres = GradedPresentation(p, [Generator(f"x{i}", 1) for i in range(1, 2 * n + 1)], cap)
    return pres.quotient([symplectic_form(pres, n)])


@lru_cache(maxsize=None)
def extraspecial_d(n: int, cap: int | None = None) -> Scenario:
    if n < 1:
        raise ScenarioError("n must be >= 1")
    if n > MAX_EXTRASPECIAL_D_N:
        raise ScenarioError(
            f"extraspecial-d takes no --n {n}: --n is at most {MAX_EXTRASPECIAL_D_N}, since "
            f"the page's generator w{2**n} of degree {2**n} must fit its degree cap 8"
        )
    cap = cap if cap is not None else (12 if n <= 2 else 8)
    cover = _elementary_pres(2, 2 * n, cap)
    action = _abelian_q_action(cover, max(1, min(2, n)))
    page = quillen_d_ring(n, cap)
    return Scenario(
        name=f"extraspecial-d(n={n})",
        kind="extraspecial-d",
        group=f"central product of {n} dihedral groups of order 8",
        presentation=page,
        detect_pres=cover,
        q_action=action,
        chern_flags={f"y{i}": cover.gen(f"x{i}") ** 2 for i in range(1, 2 * n + 1)},
        stable_top=2 * n,
        stable_note="exterior classes modulo the symplectic form",
        build_candidates=partial(_pair_candidates, cover, action, n),
        build_stable=partial(_lambda_mod_f, n, 2),
        default_target=("Q0(x1*x3)", (1,)),
    )


@lru_cache(maxsize=None)
def pgl_module(p: int) -> QModuleScenario:
    fp.check_prime(p)
    if p == 2:
        raise ScenarioError("the label-module scenario expects an odd prime")
    return QModuleScenario(p)


@dataclass(frozen=True)
class Family:
    """One scenario family: its builder, the parameters it takes in the
    builder's positional order, and its canonical instances.

    The builder is named, not stored, and is looked up among the module
    globals at call time, so a rebinding of ``certificates.<builder>`` is
    honoured.
    """

    name: str
    builder: str
    required: tuple[str, ...]
    builtins: tuple[tuple[int, ...], ...]
    optional: tuple[str, ...] = ()

    def key(self, values: tuple[int, ...]) -> str:
        """Canonical instance name, e.g. ``elementary(p=2,n=3)``."""
        if not values:
            return self.name
        params = zip(self.required + self.optional, values)
        return f"{self.name}(" + ",".join(f"{k}={v}" for k, v in params) + ")"

    def build(self, *values):
        return globals()[self.builder](*values)

    def instance(self, params: dict):
        """The instance for keyword parameters, refusing missing or foreign ones."""
        for key in self.required:
            if params.get(key) is None:
                raise ScenarioError(f"scenario {self.name!r} requires --{key}")
        for key in sorted(params):
            if key not in self.required + self.optional:
                raise ScenarioError(f"scenario {self.name!r} takes no --{key}")
        return self.build(*(params[k] for k in self.required + self.optional if k in params))


FAMILIES = {
    f.name: f
    for f in (
        Family("elementary", "elementary_abelian", ("p", "n"),
               ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))),
        Family("extraspecial-d", "extraspecial_d", ("n",), ((2,), (3,))),
        Family("extraspecial-e", "extraspecial_e", ("n",), ((2, 3), (3, 3)), optional=("p",)),
        Family("g2", "g2_scenario", (), ((),)),
        Family("pgl", "pgl_module", ("p",), ((3,), (5,))),
        Family("simply-connected", "simply_connected", ("p",), ((2,), (3,), (5,))),
        Family("so", "so_odd", ("m",), ((1,), (2,))),
    )
}


def builtin_scenarios() -> dict:
    """name -> zero-argument constructor for every canonical instance."""
    return {f.key(v): partial(f.build, *v) for f in FAMILIES.values() for v in f.builtins}


def get_scenario(family: str, **params):
    """Resolve a family name plus parameters to a canonical instance."""
    if family not in FAMILIES:
        raise ScenarioError(f"unknown scenario family {family!r}")
    return FAMILIES[family].instance(params)
