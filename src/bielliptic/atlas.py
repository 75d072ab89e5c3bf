"""Classification driver: enumerate the quotient pairs, screen, confirm, report.

A pair is a level N (non-squarefree, not a prime power, admitted by the level
gate) together with a proper nontrivial Atkin-Lehner subgroup, different from
the Fricke subgroup, whose quotient has genus at least 2.  Each pair ends in
exactly one terminal status:

* ``bielliptic-confirmed``: an explicit commuting-involution group with
  Hurwitz quotient genus 1 was exhibited (possibly after the w4-reduction);
* ``excluded``: a sound rule fired, recorded in the rule trace;
* ``adjudicated``: the mechanical rules are silent and the verdict is taken
  from the adjudication table, which cites the method that settles it.

`classify_pair`, the one path from a pair to its record, decides in this
order: the level gate, whose result is the first trace entry (the star-gate
exclusion, or the fixed-point closure at bielliptic-gate levels); `_settle`,
unless the gate excludes; the adjudication table, for a pair `_settle` leaves
inconclusive.  `_settle` runs Castelnuovo's inequality for a hyperelliptic
quotient; the witness search (`_search`, one tuple of every candidate with
its closed group and quotient genus; the first of genus 1 is the witness);
the w4-reduction, settling the reduced pair; then the exclusion rules.  `_exclusions` yields those in order (Ogg's bound,
unramified covers, many fixed points, 2-group actions, hyperelliptic
factoring) and `_settle` records the first that excludes.  A new exclusion
rule goes into `_exclusions`, the one place the battery is written.

`_search` is memoised per (level, subgroup) and is the one place the atlas
calls `group_closure`.  The 2-group and hyperelliptic-factoring rules read
the groups the normalizer involutions form with B(N) from the full group's
search, so each level closes them once and a warm classification closes
none.

The pipeline checks one piece of the expected classification: `classify_all`
raises IntegrityError when a published bielliptic pair (a key of
`witness_annotations`, the one list of them) comes out not bielliptic.  All
other regression data lives in the selftest helpers, which read the published
genus tables through `_golden_genera`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from . import _data
from .errors import DataError, IntegrityError, OrderViolation
from .involutions import (
    ExtInvolution,
    InvolutionGroup,
    _involution_table,
    fix_table,
    group_closure,
    quotient_genus_hurwitz,
)
from .ntheory import ALSubgroup, all_subgroups, factor, memoise, parse_decimal, parse_level
from .screening import (
    RuleResult,
    gate_levels,
    iso_reduce_w4,
    rule_castelnuovo,
    rule_fixed_point_closure,
    rule_many_fixed_points,
    rule_ogg_bound,
    rule_two_group,
    rule_unramified_cover,
    star_gate,
)
from .x0invariants import genus_x0

RATIONAL = "Q"
SQRT_MINUS_3 = "Q(sqrt(-3))"

# adjudicated verdict -> field of the bielliptic involution (None: not bielliptic)
_VERDICT_FIELD = {
    "not-bielliptic": None,
    "bielliptic-over-Q": RATIONAL,
    "bielliptic-over-Q(sqrt(-3))": SQRT_MINUS_3,
}


# ---------------------------------------------------------------------------
# external data


@dataclass(frozen=True)
class ECRecord:
    label: str
    conductor: int
    rank: int


def _read_table(source, sep: str | None, nfields: int, read_row) -> dict:
    """{key: value} from `read_row(*fields) -> (key, value)` over the lines of
    a string or an iterable of str or UTF-8 bytes lines, skipping '#' comments
    and blank lines.  A line splits on `sep` (None: whitespace) into exactly
    `nfields` fields, the last keeping any further `sep`.  A ValueError from a
    line's decoding, field count, fields or repeated key is a DataError that
    names the line."""
    out = {}
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = (raw.decode() if isinstance(raw, bytes) else raw).split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split() if sep is None else text.split(sep, nfields - 1)
            if len(fields) != nfields:
                raise ValueError(f"expected {nfields} fields, got {len(fields)}: {text!r}")
            key, value = read_row(*map(str.strip, fields))
            if key in out:
                raise ValueError(f"{text!r} repeats an earlier entry")
            out[key] = value
        except ValueError as exc:
            raise DataError(str(exc), line=lineno) from exc
    return out


def ingest_ec_table(source) -> dict[str, ECRecord]:
    """Parse a curve table: "label conductor rank" per line, '#' comments.
    Rejects duplicate labels and any other field count."""

    def read_row(label, conductor, rank):
        conductor = parse_decimal(conductor, "conductor")
        if conductor < 11:
            raise ValueError(f"conductor {conductor} below 11")
        return label, ECRecord(label, conductor, parse_decimal(rank, "rank"))

    return _read_table(source, None, 3, read_row)


def default_ec_table() -> dict[str, ECRecord]:
    return ingest_ec_table(_data.EC_TABLE_TEXT)


def ingest_adjudications(source) -> dict:
    """Parse adjudicated verdicts: "N;generators;verdict;citation" per line."""

    def read_row(level, generators, verdict, citation):
        N = parse_level(level)
        if verdict not in _VERDICT_FIELD:
            raise ValueError(f"unknown verdict {verdict!r}")
        return (N, ALSubgroup.parse(N, generators).elements), (verdict, citation)

    return _read_table(source, ";", 4, read_row)


def default_adjudications() -> dict:
    return ingest_adjudications(_data.ADJUDICATIONS_TEXT)


def _pair_key(N: int, gens) -> tuple[int, frozenset]:
    return N, ALSubgroup(N, gens).elements


def _normalized(table: dict) -> dict:
    return {_pair_key(N, gens): val for (N, gens), val in table.items()}


@memoise
def hyperelliptic_pairs() -> dict:
    return _normalized(_data.HYPERELLIPTIC_TABLE)


@memoise
def witness_annotations() -> dict:
    return _normalized(_data.WITNESS_TABLE)


# ---------------------------------------------------------------------------
# pair enumeration


def scope_levels() -> list[int]:
    """Levels admitted by the gate, minus the four-prime level 420."""
    return [N for N in gate_levels() if N != 420]


def enumerate_pairs() -> list[tuple[int, ALSubgroup]]:
    """All (N, W) with 1 < W < B(N), W not the Fricke subgroup, genus >= 2."""
    pairs = []
    for N in scope_levels():
        if genus_x0(N) < 2:
            continue
        for sub in all_subgroups(N):
            if sub.is_trivial or sub.is_full or sub.is_fricke:
                continue
            if quotient_genus_hurwitz(N, sub) < 2:
                continue
            pairs.append((N, sub))
    return pairs


# ---------------------------------------------------------------------------
# witness search


@dataclass(frozen=True)
class Witness:
    """An exhibited bielliptic involution, possibly at a reduced level."""

    level: int
    element: ExtInvolution
    group: InvolutionGroup
    field: str
    chain: tuple[tuple[int, str], ...] = ()

    @property
    def family(self) -> str:
        return "red" if self.chain else self.element.kind

    def describe(self) -> str:
        head = f"{self.element.name}@{self.level}" if self.chain else self.element.name
        via = "".join(f" via {lab}@{n}" for n, lab in self.chain)
        return head + via


@memoise
def _search(N: int, sub: ALSubgroup) -> tuple:
    """Every candidate of the pair, in search order, as (candidate, group, genus).

    The candidates are the involutions of the level outside W.  Each one is
    closed with W's generators and the Hurwitz genus of the quotient taken,
    also after the first genus-1 group (the witness); both are None when the
    closure raises OrderViolation.
    """
    gens = list(sub.generators())
    found = []
    for v in _involution_table(N).elements[1:]:
        if v.kind == "al" and v._al_part() in sub:
            continue
        try:
            G = group_closure(N, gens + [v])
        except OrderViolation:
            found.append((v, None, None))
            continue
        found.append((v, G, G._genus))
    return tuple(found)


# ---------------------------------------------------------------------------
# the rule battery


def _quotient_hyperelliptic(N: int, sub: ALSubgroup, g: int):
    """True/False when known, None when outside the covered data (squarefree);
    no table row or hyperelliptic gate level has genus below 2."""
    if g == 2:
        return True
    fac = factor(N)
    if fac.is_squarefree:
        return None
    if sub.is_full:
        try:
            return star_gate(N).kind == "hyperelliptic"
        except ValueError:
            return None
    return (N, sub.elements) in hyperelliptic_pairs()


def _settle(N: int, sub: ALSubgroup, g: int):
    """Witness search plus exclusion rules for a pair of genus `g` that the
    level gate let through, or for its w4-reduction.

    Returns (status, witness, trace) with status one of
    "bielliptic-confirmed", "excluded", "inconclusive".
    """
    trace: list[RuleResult] = []

    # a hyperelliptic quotient of genus >= 4 cannot be bielliptic
    if _quotient_hyperelliptic(N, sub, g) is True:
        result = rule_castelnuovo(g, 2, 0)
        if result.verdict == "must-factor":
            return "excluded", None, [result]

    # direct witness search first, so a confirmed pair carries an involution
    # at its own level whenever one exists
    found = _search(N, sub)
    for v, G, h in found:
        if h == 1:
            field = SQRT_MINUS_3 if v.kind == "v3" and 9 not in sub else RATIONAL
            return "bielliptic-confirmed", Witness(N, v, G, field), trace

    # isomorphism reduction: the reduced pair is the same curve
    red = iso_reduce_w4(N, sub)
    if red is not None:
        N2, sub2 = red
        if quotient_genus_hurwitz(N2, sub2) != g:
            raise IntegrityError(f"w4-reduction changed the genus at {N}, {sub.label()}")
        trace.append(
            RuleResult(
                "w4-reduction",
                "conjugation by the half-integral shift identifies the w4-quotient",
                "reduces",
                (N, sub.label()),
                detail=f"-> level {N2}, {sub2.label()}",
            )
        )
        # 2 || N/2, so the reduced pair does not reduce again
        status2, witness2, trace2 = _settle(N2, sub2, g)
        trace.extend(trace2)
        if status2 == "bielliptic-confirmed":
            witness2 = replace(witness2, chain=((N2, sub2.label()),) + witness2.chain)
        if status2 != "inconclusive":
            return status2, witness2, trace
        # otherwise fall through to the direct analysis

    for result in _exclusions(N, sub, g, found):
        if result.verdict == "excludes":
            trace.append(result)
            return "excluded", None, trace
    return "inconclusive", None, trace


def _exclusions(N: int, sub: ALSubgroup, g: int, found):
    """The exclusion rules for a pair without a witness, in order.

    Yields each rule's result; `_settle` records the first that excludes.
    `found` is the pair's `_search` list.  A new rule goes here.
    """
    # cheap point-count bound; sound on its own only for g >= 6, where the
    # bielliptic involution is unique and hence defined over the base field
    if g >= 6:
        for p in (3, 5, 7, 11, 13):
            if N % p:
                yield rule_ogg_bound(N, sub.order, p)
                break

    # covers to Atkin-Lehner quotients of the pair
    for big in all_subgroups(N):
        if not sub.elements < big.elements:
            continue
        h = quotient_genus_hurwitz(N, big)
        if h < 2:
            continue
        y_hyp = _quotient_hyperelliptic(N, big, h)
        if y_hyp is not None:
            yield rule_unramified_cover(g, big.order // sub.order, h, y_hyp)

    # an involution of the quotient with many fixed points; candidates with
    # the same group repeat a result, so each group is tried once
    seen = set()
    for v, G, h in found:
        if G is None or G in seen:
            continue
        seen.add(G)
        result = rule_many_fixed_points(2 * g + 2 - 4 * h, h == 1)
        if result.verdict == "excludes":
            result = replace(result, detail=f"{v.name} on the quotient")
        yield result

    # 2-groups of automorphisms acting on the fixed points
    for H_order, tag in _two_group_options(N, sub, g, found):
        result = rule_two_group(g, H_order)
        if result.verdict == "excludes":
            result = replace(result, detail=tag)
        yield result

    # ramified cover of a hyperelliptic full quotient: the (unique, central)
    # bielliptic involution would induce the hyperelliptic involution there
    result = _hyperelliptic_factoring(N, sub, g)
    if result is not None:
        yield result


def _two_group_options(N: int, sub: ALSubgroup, g: int, found):
    """Orders of elementary-abelian 2-groups acting faithfully on the pair.

    The w_d outside W and the extended groups' involutions are search
    candidates, so the genera of their groups with W are read from the
    pair's `_search` list `found`."""
    if g < 6:
        return
    full = ALSubgroup.full(N)
    index = full.order // sub.order
    if index > 1 and all(h < g for v, _, h in found if v.kind == "al"):
        yield index, "image of the full Atkin-Lehner group"
    # extended: adjoin one normalizer involution that commutes with everything;
    # its group with B(N) is a candidate of the full group's search
    extras = []
    if N % 8 == 0:
        extras.append(ExtInvolution.v2(N))
    if factor(N).valuation(3) == 2:
        extras.append(ExtInvolution.v3(N))
    # every involution outside W is a candidate; None where its closure raised
    genus = {v: h for v, _, h in found}
    for extra, big, _ in _search(N, full):
        if extra not in extras or big is None:
            continue
        if all(
            genus[e] is not None and genus[e] < g for e in big.nontrivial() if e in genus
        ):
            yield big.order // sub.order, (
                f"image of the Atkin-Lehner group extended by {extra.name}"
            )


def _hyperelliptic_factoring(N: int, sub: ALSubgroup, g: int):
    if g < 6 or factor(N).is_squarefree:
        return None
    # `_settle` runs at a level the gate accepted or at its w4-reduction 2m
    # (m odd, m > 1); not squarefree, that level is in the gate's domain too
    gate = star_gate(N)
    if gate.kind != "hyperelliptic":
        return None
    full = ALSubgroup.full(N)
    index = full.order // sub.order
    if g - 1 <= index * (gate.star_genus - 1):
        return None  # could be unramified; no conclusion
    # the hyperelliptic involution of the full quotient among the normalizer
    # families: the first candidate of genus 0
    hyper = next((v for v, _, h in _search(N, full) if h == 0), None)
    if hyper is None:
        return None
    # every lift of that involution to this quotient was refuted by the search
    return RuleResult(
        "hyperelliptic-factoring",
        "a ramified cover of a hyperelliptic curve forces the (central) "
        "bielliptic involution to induce its hyperelliptic involution",
        "excludes",
        (N, sub.label(), g, gate.star_genus),
        detail=f"hyperelliptic involution of the full quotient: {hyper.name}",
    )


# ---------------------------------------------------------------------------
# records and the full classification


@dataclass
class PairRecord:
    N: int
    subgroup: ALSubgroup
    genus: int
    status: str
    hyperelliptic: bool
    witness: Witness | None = None
    field: str | None = None
    rule_trace: tuple[RuleResult, ...] = ()
    adjudication: tuple[str, str] | None = None
    quadratic_points: str | None = None

    @property
    def bielliptic(self) -> bool:
        """A confirmed pair carries its witness's field and an adjudicated
        one its verdict's, which is None only for not-bielliptic."""
        return self.field is not None

    def key(self):
        return (self.N, self.subgroup.elements)

    def sort_key(self):
        return (self.N, self.subgroup.sort_key())


def classify_pair(N: int, W, adjudications=None) -> PairRecord:
    """Terminal status for one in-scope pair: the level gate, then `_settle`,
    then the adjudication table for a pair `_settle` leaves inconclusive."""
    sub = ALSubgroup.of(N, W)
    g = quotient_genus_hurwitz(N, sub)
    hyper = _quotient_hyperelliptic(N, sub, g) is True
    if g < 2:
        return PairRecord(N, sub, g, "genus-too-small", hyper)

    gate = star_gate(N)
    trace = []
    if gate.kind == "fails-gate":
        trace.append(RuleResult("star-gate", "the full quotient is neither subhyperelliptic "
                                "nor bielliptic", "excludes", (N,)))
    elif gate.kind == "bielliptic":
        trace.append(rule_fixed_point_closure(N, sub))
    if trace and trace[0].verdict == "excludes":
        status, witness = "excluded", None
    else:
        status, witness, settled = _settle(N, sub, g)
        trace += settled
    verdict = field = None
    if witness is not None:
        field = witness.field
    elif status == "inconclusive":
        adjudications = default_adjudications() if adjudications is None else adjudications
        verdict = adjudications.get((N, sub.elements))
        if verdict is not None:
            status, field = "adjudicated", _VERDICT_FIELD[verdict[0]]
    return PairRecord(N, sub, g, status, hyper, witness, field, tuple(trace), verdict)


def classify_all(ec_table=None, adjudications=None) -> list[PairRecord]:
    """Classify every in-scope pair and decide its quadratic-point status.

    Raises IntegrityError when a pair stays inconclusive or a published
    bielliptic pair comes out not bielliptic.
    """
    ec = default_ec_table() if ec_table is None else ec_table
    adjudications = default_adjudications() if adjudications is None else adjudications
    records = []
    for N, sub in enumerate_pairs():
        rec = classify_pair(N, sub, adjudications)
        rec.quadratic_points = quadratic_points(rec, ec)
        records.append(rec)
    open_pairs = [r for r in records if r.status == "inconclusive"]
    if open_pairs:
        names = ", ".join(f"({r.N},{r.subgroup.label()})" for r in open_pairs)
        raise IntegrityError(f"unresolved pairs: {names}")
    for rec in records:
        if rec.bielliptic is False and rec.key() in witness_annotations():
            raise IntegrityError(
                f"({rec.N},{rec.subgroup.label()}) wrongly excluded"
            )
    return records


# ---------------------------------------------------------------------------
# quadratic points


def quadratic_points(record: PairRecord, ec_table) -> str:
    """Infinitely many quadratic points iff the pair is hyperelliptic or
    bielliptic over Q with a positive-rank elliptic quotient."""
    if record.hyperelliptic:
        return "infinite(hyperelliptic)"
    if record.bielliptic:
        if record.field != RATIONAL:
            return "finite"
        ann = witness_annotations().get((record.N, record.subgroup.elements))
        if ann is None:
            raise DataError(
                f"missing-rank-data: no elliptic quotients recorded for "
                f"({record.N},{record.subgroup.label()})"
            )
        for label in ann[1]:
            curve = ec_table.get(label)
            if curve is None:
                raise DataError(f"missing-rank-data: no curve data for {label}")
            if curve.rank > 0:
                return f"infinite(bielliptic:{label},rank {curve.rank})"
        return "finite"
    return "finite"


# ---------------------------------------------------------------------------
# regression targets (selftest data; `classify_all` checks only the
# published bielliptic pairs, the keys of `witness_annotations`)


def published_infinite_pairs() -> set:
    """Keys of the pairs with infinitely many quadratic points."""
    out = set()
    scope = set(scope_levels())
    for (N, gens) in _data.HYPERELLIPTIC_TABLE:
        key = _pair_key(N, gens)
        sub = ALSubgroup(N, gens)
        if N in scope and not sub.is_fricke and not sub.is_full:
            out.add(key)
    out.add(_pair_key(99, (9,)))
    out.add(_pair_key(99, (11,)))
    return out


# ---------------------------------------------------------------------------
# reports


def _genus_matrix_rows(levels):
    rows = []
    for N in sorted(levels):
        genera = [quotient_genus_hurwitz(N, sub) for sub in all_subgroups(N)]
        rows.append((N, genera))
    return rows


def emit_report(records, fmt: str = "markdown") -> str:
    """Deterministic report of classification results."""
    records = sorted(records, key=PairRecord.sort_key)
    levels = sorted({r.N for r in records})
    if fmt == "json":
        blob = []
        for r in records:
            blob.append({
                "level": r.N,
                "subgroup": r.subgroup.label(),
                "genus": r.genus,
                "status": r.status,
                "hyperelliptic": r.hyperelliptic,
                "field": r.field,
                "witness": r.witness.describe() if r.witness else None,
                "adjudication": list(r.adjudication) if r.adjudication else None,
                "quadratic_points": r.quadratic_points,
                "trace": [res.line() for res in r.rule_trace],
            })
        return json.dumps(blob, indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["# genus matrix: level, genera in canonical subgroup order"]
        for N, genera in _genus_matrix_rows(levels):
            lines.append(",".join([str(N)] + [str(g) for g in genera]))
        lines.append("# pairs: level, subgroup, genus, status, quadratic points")
        for r in records:
            lines.append(
                f"{r.N},{r.subgroup.label()},{r.genus},{r.status},{r.quadratic_points}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["# Quotient genus tables", ""]
        for N, genera in _genus_matrix_rows(levels):
            subs = all_subgroups(N)
            lines.append(f"## N = {N}")
            lines.append("| subgroup | genus |")
            lines.append("| --- | --- |")
            for sub, g in zip(subs, genera):
                name = "B(N)" if sub.is_full else sub.label()
                lines.append(f"| {name} | {g} |")
            lines.append("")
        lines.append("# Bielliptic pairs")
        lines.append("")
        lines.append("| level | subgroup | genus | witness | field | quadratic points |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for r in records:
            if not r.bielliptic:
                continue
            wit = r.witness.describe() if r.witness else "(adjudicated)"
            lines.append(
                f"| {r.N} | {r.subgroup.label()} | {r.genus} | {wit} "
                f"| {r.field} | {r.quadratic_points} |"
            )
        lines.append("")
        lines.append("# Excluded and adjudicated pairs")
        lines.append("")
        for r in records:
            if r.bielliptic:
                continue
            source = (
                f"adjudicated: {r.adjudication[1]}"
                if r.status == "adjudicated"
                else (r.rule_trace[-1].rule_id if r.rule_trace else "")
            )
            lines.append(
                f"- ({r.N}, {r.subgroup.label()}), genus {r.genus}: "
                f"{r.quadratic_points}; {source}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# selftest helpers


def _golden_genera(levels=None):
    """(N, subgroup, genus) for every cell of the published genus tables, or
    of their rows at `levels`; a two-prime row's full quotient is the level
    gate's star genus.  A row without one cell per subgroup is an
    IntegrityError."""
    rows = sorted(_data.GENUS_TABLE_2P.items()) + sorted(_data.GENUS_TABLE_3P.items())
    for N, row in rows:
        if levels is not None and N not in levels:
            continue
        if N in _data.GENUS_TABLE_2P:  # four cells, then the full quotient
            row = (*row, star_gate(N).star_genus)
        subs = all_subgroups(N)
        if len(subs) != len(row):
            raise IntegrityError(f"level {N} does not have {len(row)} subgroups")
        yield from ((N, sub, want) for sub, want in zip(subs, row))


def verify_genus_tables(levels=None) -> int:
    """Recompute every genus cell; raises on any mismatch, returns cell count.

    `levels` restricts the check; a level with no published row is a
    ValueError that names it.
    """
    if levels is not None:
        published = _data.GENUS_TABLE_2P.keys() | _data.GENUS_TABLE_3P.keys()
        missing = sorted(set(levels) - published)
        if missing:
            raise ValueError(f"no published genus row for level(s) {missing}")
    checked = 0
    for N, sub, want in _golden_genera(levels):
        got = quotient_genus_hurwitz(N, sub)
        if got != want:
            raise IntegrityError(
                f"genus mismatch at N={N}, {sub.label()}: computed {got}, table {want}"
            )
        checked += 1
    return checked


def verify_fix_tables() -> int:
    """Recompute the three published fixed-point tables; returns entry count."""
    golden = {
        120: _data.FIX_TABLE_120,
        252: _data.FIX_TABLE_252,
        176: _data.FIX_TABLE_176,
    }
    checked = 0
    for N, table in golden.items():
        computed = dict(fix_table(N))
        for name, want in table.items():
            got = computed.get(name)
            if got != want:
                raise IntegrityError(
                    f"fixed-point mismatch at level {N}, {name}: computed {got}, table {want}"
                )
            checked += 1
    return checked


def _pair_names(keys, limit: int = 4) -> str:
    """The pairs (N, elements) as "(N,<label>)" in report order, the first
    `limit` of them, with "…" when some were cut."""
    subs = sorted((ALSubgroup(N, elements) for N, elements in keys),
                  key=lambda sub: (sub.level, sub.sort_key()))
    names = [f"({sub.level},{sub.label()})" for sub in subs[:limit]]
    if len(subs) > limit:
        names.append("…")
    return ", ".join(names) or "none"


def verify_classification(records=None):
    """Compare a classification run against the published theorems: the
    bielliptic pairs are the keys of `witness_annotations`, and each one's
    genus is its cell of the published genus tables."""
    if records is None:
        records = classify_all()
    expected = witness_annotations().keys()
    got = {r.key(): r for r in records if r.bielliptic}
    missing = expected - got.keys()
    extra = got.keys() - expected
    if missing or extra:
        raise IntegrityError(
            f"classification mismatch: missing {_pair_names(missing)}, "
            f"extra {_pair_names(extra)}"
        )
    golden = {
        (N, sub.elements): g for N, sub, g in _golden_genera({N for N, _ in expected})
    }
    for rec in sorted(got.values(), key=PairRecord.sort_key):
        name = f"({rec.N},{rec.subgroup.label()})"
        want = golden.get(rec.key())
        if want is None:
            raise IntegrityError(f"no published genus for bielliptic pair {name}")
        if rec.genus != want:
            raise IntegrityError(
                f"genus mismatch for bielliptic pair {name}: "
                f"computed {rec.genus}, table {want}"
            )
    non_rational = {r.key() for r in records if r.bielliptic and r.field != RATIONAL}
    published = {_pair_key(N, gens) for N, gens in _data.NON_RATIONAL_BIELLIPTIC}
    if non_rational != published:
        wrong = [
            f"({r.N},{r.subgroup.label()}) over {r.field}"
            for r in records if r.key() in non_rational ^ published
        ]
        raise IntegrityError(f"field mismatch for bielliptic pairs: {', '.join(wrong)}")
    infinite_expected = published_infinite_pairs()
    infinite_got = {
        r.key() for r in records if (r.quadratic_points or "").startswith("infinite")
    }
    if infinite_got != infinite_expected:
        raise IntegrityError(
            f"quadratic-points mismatch: "
            f"missing {_pair_names(infinite_expected - infinite_got)}, "
            f"extra {_pair_names(infinite_got - infinite_expected)}"
        )
    return {
        "pairs": len(records),
        "bielliptic": len(got),
        "adjudicated": sum(1 for r in records if r.status == "adjudicated"),
        "excluded": sum(1 for r in records if r.status == "excluded"),
        "infinite_quadratic": len(infinite_got),
    }
