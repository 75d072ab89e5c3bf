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
its closed group's mask and quotient genus; the first of genus 1 is the
witness); the w4-reduction, settling the reduced pair; then the exclusion
rules.  `_exclusions` yields those in order (Ogg's bound, unramified covers,
many fixed points, 2-group actions, hyperelliptic factoring) and `_settle`
records the first that excludes.  A new exclusion rule goes into
`_exclusions`, the one place the battery is written.

`_search`, memoised per (level, subgroup), is the one place the atlas grows
involution groups: from W's mask on the level's involution table
(`ALSubgroup.hall_mask`), by one coset per candidate.  The 2-group and
hyperelliptic-factoring rules read the groups the normalizer involutions
form with B(N) from the full group's search, so each level grows them once
and a warm classification grows none.  Every fixed-point count and genus the
atlas reads is the table's (`_InvolutionTable.fix`, `genus`).

The pipeline checks one piece of the expected classification: `classify_all`
raises IntegrityError when a published bielliptic pair (a key of
`witness_annotations`, the one list of them) comes out not bielliptic.  All
other regression data lives in the selftest helpers, which read the published
genus tables through `_golden_genera`.

The four published pair tables (the hyperelliptic quotients, the witness
table, the non-rational pairs and the adjudications) key each row by
(N, elements of W), as `PairRecord.key()` does, while `_read_table` reads
it: `_read_pair` is the one pair parser.  A row that repeats a pair with
its generators in another order, or names a generator that is not a Hall
divisor of N, is a DataError that names its line.

`emit_report` writes the JSON report through one template per record, byte
for byte what `json.dumps(indent=2, sort_keys=True)` gives for the records as
dicts; that route stays with the tests as the oracle
`tests/oracles.report_json_reference`.
"""

from __future__ import annotations

try:  # the C function alone: `json.encoder` would load all of `json`
    from _json import encode_basestring_ascii as _json_string
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _json_string

from . import _data
from .errors import DataError, IntegrityError
from .involutions import (
    ExtInvolution,
    _involution_table,
    fix_table,
    quotient_genus_hurwitz,
)
from .ntheory import (
    ALSubgroup, Frozen, Record, all_subgroups, factor, hall_divisors, memoise,
    parse_decimal, parse_level, replace,
)
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


class ECRecord(Frozen):
    __match_args__ = ("label", "conductor", "rank")

    def __init__(self, label: str, conductor: int, rank: int):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "rank", rank)


def _read_table(source, sep: str | None, nfields: int, read_row) -> dict:
    """{key: value} from `read_row(*fields) -> (key, value)` over the lines of
    a string or an iterable of str or UTF-8 bytes lines (a byte-order mark
    is dropped), skipping blank lines and comments: a line whose first
    non-blank character is '#'.  A '#' anywhere else is data.  A line
    splits on `sep` (None: whitespace) into exactly `nfields` fields, the
    last keeping any further `sep`.  A ValueError from a line's decoding,
    field count, fields or repeated key is a DataError that names the line."""
    out = {}
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = (raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw).strip()
            if not text or text[0] == "#":
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


@memoise
def default_ec_table() -> dict[str, ECRecord]:
    """The `_data` curve table, read once per process into one dict that
    every caller shares; a `--ec` file is read on each call."""
    return ingest_ec_table(_data.EC_TABLE_TEXT)


def ingest_adjudications(source) -> dict:
    """Parse adjudicated verdicts: "N;generators;verdict;citation" per line."""

    def read_row(level, generators, verdict, citation):
        key = _read_pair(level, generators)
        if verdict not in _VERDICT_FIELD:
            raise ValueError(f"unknown verdict {verdict!r}")
        return key, (verdict, citation)

    return _read_table(source, ";", 4, read_row)


@memoise
def default_adjudications() -> dict:
    """The `_data` adjudications, read once per process into one dict that
    every caller shares; an `--adjudications` file is read on each call."""
    return ingest_adjudications(_data.ADJUDICATIONS_TEXT)


# ---------------------------------------------------------------------------
# embedded tables: each reader parses its text block of `_data` when called;
# the two pair tables the classification reads are memoised


def _read_pair(level: str, generators: str) -> tuple[int, frozenset]:
    """A pair as the tables write it, "N" and "w<d>,w<e>", keyed as
    `PairRecord.key()` keys it: (N, elements of the subgroup).  The one pair
    parser of the package; a bad level or generator is a ValueError."""
    N = parse_level(level)
    return N, ALSubgroup.parse(N, generators).elements


def _numbers(fields, what: str) -> tuple[int, ...]:
    return tuple(parse_decimal(field, what) for field in fields)


def published_genus_table(omega: int) -> dict[int, tuple[int, ...]]:
    """The published genus table of the levels with omega = 2 or 3 primes:
    N -> its genera in canonical subgroup order.  A two-prime row stops
    before the full quotient, whose genus is the level gate's star genus."""
    text, cells = {
        2: (_data.GENUS_TABLE_2P_TEXT, 4), 3: (_data.GENUS_TABLE_3P_TEXT, 16),
    }[omega]
    return _read_table(
        text, None, 1 + cells, lambda N, *row: (parse_level(N), _numbers(row, "genus"))
    )


def non_rational_pairs() -> frozenset:
    """The keys of the pairs bielliptic only over Q(sqrt(-3))."""
    rows = _read_table(
        _data.NON_RATIONAL_BIELLIPTIC_TEXT, None, 2, lambda N, gens: (_read_pair(N, gens), None)
    )
    return frozenset(rows)


@memoise
def hyperelliptic_pairs() -> dict:
    """Pair key -> genus of the published hyperelliptic quotients."""
    return _read_table(
        _data.HYPERELLIPTIC_TABLE_TEXT, None, 3,
        lambda N, gens, g: (_read_pair(N, gens), parse_decimal(g, "genus")),
    )


def published_fix_tables() -> dict[int, dict[str, int]]:
    """N -> {element name: fixed-point count} of the published tables."""
    rows = _read_table(
        _data.FIX_TABLES_TEXT, None, 3,
        lambda N, name, count: ((parse_level(N), name), parse_decimal(count, "count")),
    )
    tables: dict[int, dict[str, int]] = {}
    for (N, name), count in rows.items():
        tables.setdefault(N, {})[name] = count
    return tables


@memoise
def witness_annotations() -> dict:
    """Pair key -> (witness families, elliptic-quotient labels) of the 124
    published bielliptic pairs."""

    def read_row(N, gens, families, curves):
        return _read_pair(N, gens), (tuple(families.split(",")), tuple(curves.split(",")))

    return _read_table(_data.WITNESS_TABLE_TEXT, None, 4, read_row)


# ---------------------------------------------------------------------------
# pair enumeration


def scope_levels() -> list[int]:
    """Levels admitted by the gate, minus the four-prime level 420."""
    return [N for N in gate_levels() if N != 420]


def enumerate_pairs() -> list[tuple[int, ALSubgroup]]:
    """All (N, W) with 1 < W < B(N), W not the Fricke subgroup, genus >= 2,
    in report order: a fresh list of the pairs `_pairs` finds once."""
    return list(_pairs())


@memoise
def _pairs() -> tuple[tuple[int, ALSubgroup], ...]:
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
    return tuple(pairs)


# ---------------------------------------------------------------------------
# witness search


class Witness(Frozen):
    """An exhibited bielliptic involution, possibly at a reduced level, with
    the mask of its genus-1 group on that level's involution table."""

    __match_args__ = ("level", "element", "mask", "field", "chain")

    def __init__(self, level: int, element: ExtInvolution, mask: int,
                 field: str, chain: tuple[tuple[int, str], ...] = ()):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "chain", chain)

    @property
    def group(self) -> tuple[ExtInvolution, ...]:
        """The group's elements in table order, identity first."""
        return _involution_table(self.level).members(self.mask)

    def describe(self) -> str:
        head = f"{self.element.name}@{self.level}" if self.chain else self.element.name
        via = "".join(f" via {lab}@{n}" for n, lab in self.chain)
        return head + via


@memoise
def _search(N: int, sub: ALSubgroup) -> tuple:
    """Every candidate of the pair, in search order, as (candidate, mask, genus).

    The candidates are the involutions of the level's involution table
    outside W.  From W's mask (`ALSubgroup.hall_mask`) and its index list,
    each candidate extends that group by one coset (`_InvolutionTable.extend`),
    and the table gives the Hurwitz genus of the grown mask
    (`_InvolutionTable.genus`), also after the first genus-1 group (the
    witness); mask and genus are None when the coset holds a non-involution.
    """
    table, mask = _involution_table(N), sub.hall_mask
    elems = [i for i in range(mask.bit_length()) if mask >> i & 1]
    found = []
    for g, v in enumerate(table.elements):
        if mask >> g & 1:
            continue
        grown = table.extend(elems, mask, g)
        if type(grown[0]) is str:
            found.append((v, None, None))
        else:
            found.append((v, grown[1], table.genus(grown[1])))
    return tuple(found)


# ---------------------------------------------------------------------------
# the rule battery


def _quotient_hyperelliptic(N: int, sub: ALSubgroup, g: int):
    """True/False when known, None when outside the covered data: a
    squarefree level, which only a w4-reduction reaches.  The full group is
    asked of the level gate; `classify_pair` has already refused a level
    outside its standing hypothesis.  No table row or hyperelliptic gate
    level has genus below 2."""
    if g == 2:
        return True
    if factor(N).is_squarefree:
        return None
    if sub.is_full:
        return star_gate(N).kind == "hyperelliptic"
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
    for v, mask, h in found:
        if h == 1:
            field = SQRT_MINUS_3 if v.kind == "v3" and 9 not in sub else RATIONAL
            witness = Witness(N, v, mask, field)
            return "bielliptic-confirmed", witness, trace

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
    # the same group repeat a result, so each group's mask is tried once
    seen = set()
    for v, mask, h in found:
        if mask is None or mask in seen:
            continue
        seen.add(mask)
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
    for extra, mask, _ in _search(N, full):
        if extra not in extras or mask is None:
            continue
        big = _involution_table(N).members(mask)
        if all(genus[e] is not None and genus[e] < g for e in big if e in genus):
            yield len(big) // sub.order, (
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


class PairRecord(Record):
    """One pair's classification; `classify_all` sets `quadratic_points`
    after the fact.  A mutable Record, so it compares by its fields and is
    not hashable."""

    __match_args__ = (
        "N", "subgroup", "genus", "status", "hyperelliptic", "witness", "field",
        "rule_trace", "adjudication", "quadratic_points",
    )

    def __init__(self, N: int, subgroup: ALSubgroup, genus: int, status: str,
                 hyperelliptic: bool, witness: Witness | None = None,
                 field: str | None = None, rule_trace: tuple[RuleResult, ...] = (),
                 adjudication: tuple[str, str] | None = None,
                 quadratic_points: str | None = None):
        self.N = N
        self.subgroup = subgroup
        self.genus = genus
        self.status = status
        self.hyperelliptic = hyperelliptic
        self.witness = witness
        self.field = field
        self.rule_trace = rule_trace
        self.adjudication = adjudication
        self.quadratic_points = quadratic_points

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
    then the adjudication table for a pair `_settle` leaves inconclusive.
    A level outside the standing hypothesis (squarefree, or a prime power)
    raises the gate's ValueError before any genus is computed.
    At a bielliptic-gate level this gathers the inputs of the fixed-point
    closure rule, which like every screening rule is a pure predicate."""
    sub = ALSubgroup.of(N, W)
    gate = star_gate(N)
    g = quotient_genus_hurwitz(N, sub)
    hyper = _quotient_hyperelliptic(N, sub, g) is True
    if g < 2:
        return PairRecord(N, sub, g, "genus-too-small", hyper)

    trace = []
    if gate.kind == "fails-gate":
        trace.append(RuleResult("star-gate", "the full quotient is neither subhyperelliptic "
                                "nor bielliptic", "excludes", (N,)))
    elif gate.kind == "bielliptic":
        table = _involution_table(N)
        fixed = next((d for i, d in enumerate(hall_divisors(N)) if i and d not in sub
                      and table.fix(i) > 0), None)
        index = (1 << factor(N).omega) // sub.order
        trace.append(rule_fixed_point_closure(N, sub.label(), g, index, gate.star_genus, fixed))
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
        ann = witness_annotations().get(record.key())
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
    out = {_read_pair("99", "w9"), _read_pair("99", "w11")}
    scope = set(scope_levels())
    for N, elements in hyperelliptic_pairs():
        sub = ALSubgroup(N, elements)
        if N in scope and not sub.is_fricke and not sub.is_full:
            out.add((N, elements))
    return out


# ---------------------------------------------------------------------------
# reports


def _genus_matrix_rows(levels):
    rows = []
    for N in sorted(levels):
        genera = [quotient_genus_hurwitz(N, sub) for sub in all_subgroups(N)]
        rows.append((N, genera))
    return rows


# A record as `json.dumps(indent=2, sort_keys=True)` lays it out in a list:
# the keys in sorted order, each value already encoded.
_JSON_RECORD = """  {{
    "adjudication": {},
    "field": {},
    "genus": {},
    "hyperelliptic": {},
    "level": {},
    "quadratic_points": {},
    "status": {},
    "subgroup": {},
    "trace": {},
    "witness": {}
  }}"""


def _json_text(s: str | None) -> str:
    return "null" if s is None else _json_string(s)


def _json_list(items) -> str:
    """A list of strings as the value of a record's key."""
    if not items:
        return "[]"
    return "[\n      " + ",\n      ".join(map(_json_string, items)) + "\n    ]"


def _json_record(r: PairRecord) -> str:
    return _JSON_RECORD.format(
        _json_list(r.adjudication) if r.adjudication else "null",
        _json_text(r.field),
        r.genus,
        "true" if r.hyperelliptic else "false",
        r.N,
        _json_text(r.quadratic_points),
        _json_string(r.status),
        _json_string(r.subgroup.label()),
        _json_list([res.line() for res in r.rule_trace]),
        _json_string(r.witness.describe()) if r.witness else "null",
    )


def emit_report(records, fmt: str = "markdown") -> str:
    """Deterministic report of classification results.

    JSON is one template per record, each string escaped by the C encoder
    `json.dumps` uses: byte-identical to `json.dumps(indent=2,
    sort_keys=True)` of the records as dicts, without building them or
    running the pure-Python encoder that `indent` selects.  The oracle is
    `report_json_reference` in `tests/oracles.py`.
    """
    records = sorted(records, key=PairRecord.sort_key)
    levels = sorted({r.N for r in records})
    if fmt == "json":
        if not records:
            return "[]"
        return "[\n" + ",\n".join(map(_json_record, records)) + "\n]"
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
    two_prime = published_genus_table(2)
    for N, row in sorted(two_prime.items()) + sorted(published_genus_table(3).items()):
        if levels is not None and N not in levels:
            continue
        if N in two_prime:  # four cells, then the full quotient
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
        published = published_genus_table(2).keys() | published_genus_table(3).keys()
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
    checked = 0
    for N, table in published_fix_tables().items():
        computed = dict(fix_table(N))
        for name, want in table.items():
            got = computed.get(name)
            if got != want:
                raise IntegrityError(
                    f"fixed-point mismatch at level {N}, {name}: computed {got}, table {want}"
                )
            checked += 1
    return checked


def _pair_names(keys) -> str:
    """The pairs (N, elements) as "(N,<label>)" in report order, the first
    four of them, with "…" when some were cut."""
    subs = sorted((ALSubgroup(N, elements) for N, elements in keys),
                  key=lambda sub: (sub.level, sub.sort_key()))
    names = [f"({sub.level},{sub.label()})" for sub in subs[:4]]
    if len(subs) > 4:
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
    published = non_rational_pairs()
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
