"""Independent reference routes the tests check the library against.

None of this is on a production path.  The library's modular-symbols space
is the sign +1 quotient M2+; `FullSpace` is all of M2, with only the
two-term relation paired and every three-term relation eliminated, and
`full_trace` is its trace route.  It maps the two endpoints of each free
generator's path and expands each image by its own convergent chain, where
the library splits one matrix by its Hermite form, so the two reach a trace
by different decompositions.  `hermite_split` is the split of one image by
its Hermite form, which the trace makes inline, and `_image_symbols`
collects the symbols of the chain that the trace walks after it, with the
signs the trace drops, so the tests can check each image against
`path_vector` on M2+ and on all of M2.  The routes below work on either
space: they build the cuspidal subspace as the kernel of the boundary map,
matching cusps by Cremona's pairwise criterion (up to the star involution on M2+),
and act on it with full Atkin-Lehner matrices, so a genus can be read off
the +1-eigenspaces instead of the traces.  The V3 twist is an isomorphism
reduction the classification does not apply; the tests check its genus
identity.  `subgroup_lattice_by_growth` grows the Atkin-Lehner subgroups
layer by layer from the trivial group and sorts them, as `all_subgroups` did
before it read one table of subspaces per omega.  `compose_reference`
is the library's former `compose` as it was before the involution table ran
its rules on hoisted level constants; the table is now the only library code
that multiplies involutions.  `closure_by_compose` closes an involution
group by calling `compose_reference` on every product, as `group_closure`
did before it read the level's product table, and as the witness search did
before it grew W's group by one coset per candidate.
`hurwitz_genus_reference` solves the Hurwitz equation for a group's
elements from `fix_count` and `genus_x0`, with none of the per-mask genus
store of the level's involution table.  `two_group_options` and
`hyperelliptic_factoring` are the atlas's 2-group and hyperelliptic-factoring
rules as they were before they read the full group's candidate search: each
closes B(N) with the normalizer involutions itself.  The number-theory routes count reduced
forms literally and count Atkin-Lehner fixed points by complex
multiplication.  `report_json_reference` is the JSON report as
`atlas.emit_report` wrote it before it used one template per record: the
records as dicts, through `json.dumps(indent=2, sort_keys=True)`.  Two
readings of the paper's tables serve only the tests: `printed_pair_rows`,
a pair table's rows keyed by the generators as printed, where the library
keys a pair by its subgroup; `printed_deviations`, the misprinted genus
cells of the published N = 294 row, read by it; and `witness_family`, a
witness's family as the witness table's families column names it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt, lcm

from bielliptic.atlas import PairRecord, _numbers, _read_table
from bielliptic.errors import IntegrityError, OrderViolation
from bielliptic.involutions import (
    _ID2,
    ExtInvolution,
    _coprime3,
    _f_word,
    _word_mul,
    fix_count,
    level_involutions,
    parse_element,
    quotient_genus_hurwitz,
)
from bielliptic.modsym import (
    ModSymSpace,
    _cusp_normalize,
    _int_rref,
    _p1_points,
    _reduce_int_row,
    _sl2_lift,
)
from bielliptic.ntheory import (
    ALSubgroup,
    class_number,
    egcd,
    factor,
    hall_divisors,
    hall_product,
    kronecker,
    parse_level,
    parse_w,
    validate_discriminant,
)
from bielliptic.screening import RuleResult, star_gate
from bielliptic.x0invariants import cusp_count, genus_x0

# -- modular symbols -----------------------------------------------------


def rref_highest_lead_first(rows) -> dict:
    """`_int_rref` of the nonzero rows taken highest lead column first.

    The result is the same in any order; this one keeps the fill-in small
    where the rows come in an order that makes it grow.  At N = 840 the
    three-term relations of all of M2 take 1 532 row operations this way and
    40 373 in the order of their P^1 points; the boundary rows of M2+ at
    N = 120 take 19 and 70.
    """
    rows = [row for row in ({k: v for k, v in r.items() if v} for r in rows) if row]
    return _int_rref(sorted(rows, key=min, reverse=True))


def cusp_equiv(N: int, c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Gamma0(N)-equivalence of reduced cusps p1/q1 and p2/q2, pairwise.

    Cremona, Algorithms for Modular Elliptic Curves, Prop. 2.2.3: with
    s_j p_j = 1 (mod q_j), the cusps are equivalent iff
    s1 q2 = s2 q1 (mod gcd(q1 q2, N)).
    """
    p1, q1 = c1
    p2, q2 = c2
    _, s1, _ = egcd(p1, q1)
    _, s2, _ = egcd(p2, q2)
    m = gcd(q1 * q2, N)
    if m == 0:
        m = N
    return (s1 * q2 - s2 * q1) % m == 0


class FullSpace:
    """All of M2 for one level, the space the library's sign +1 quotient halves.

    Each point has a sign and a column under the two-term relation
    x + x.sigma = 0 alone, with sign 0 where x = -x; every three-term
    relation is eliminated, and a column's row holds its symbol over `den`
    with the sign not negated (a free column's row is {col: den}); `cusps`
    holds one representative per cusp class, found by the pairwise
    criterion.  The attributes mirror `ModSymSpace`, whose P^1 lookup and
    Atkin-Lehner witness it borrows.
    """

    p1_index = ModSymSpace.p1_index
    al_matrix = ModSymSpace.al_matrix
    _moebius = staticmethod(ModSymSpace._moebius)

    def __init__(self, N: int):
        self.N = N
        self.genus = genus_x0(N)
        self.rep_g, self.rep_v, self._p1_table, self._p1_mod, self._p1_inv = _p1_points(N)
        look = self.p1_index
        n = len(self.rep_g)
        sign: list = [None] * n
        col = [0] * n
        for i, (c, d) in enumerate(zip(self.rep_g, self.rep_v)):
            if sign[i] is None:
                j = look(d, -c)
                sign[i], col[i] = (0 if j == i else 1), i
                if j != i:
                    sign[j], col[j] = -1, i
        self.sign, self.col = sign, col
        relations = []
        seen = [False] * n
        for i, (c, d) in enumerate(zip(self.rep_g, self.rep_v)):
            if seen[i]:
                continue
            row: dict[int, int] = {}
            for m in (i, look(d, -c - d), look(-c - d, c)):
                seen[m] = True
                if sign[m]:
                    row[col[m]] = row.get(col[m], 0) + sign[m]
            relations.append(row)
        pivots = rref_highest_lead_first(relations)
        kept = sorted({x for s, x in zip(sign, col) if s})
        self.free = tuple(c for c in kept if c not in pivots)
        self.dim = len(self.free)
        expected = 2 * self.genus + cusp_count(N) - 1
        if self.dim != expected:
            raise IntegrityError(f"level {N}: dim M2 = {self.dim} != {expected}")
        den = self.den = lcm(*(row[c] for c, row in pivots.items()))
        self.rows = {c: {c: den} for c in self.free}
        for c, row in pivots.items():
            q = den // row[c]
            self.rows[c] = {k: -v * q for k, v in row.items() if k != c}
        self.row_of = [self.rows.get(x) for x in col]
        cusps = [(1, 0)]
        for cusp in dict.fromkeys(e for c in self.free for e in manin_path(self, c)):
            if not any(cusp_equiv(N, cusp, rep) for rep in cusps):
                cusps.append(cusp)
        if len(cusps) != cusp_count(N):
            raise IntegrityError(f"level {N}: {len(cusps)} cusp classes found")
        self.cusps = tuple(cusps)


def _is_plus(space) -> bool:
    return isinstance(space, ModSymSpace)


def _same_cusp(space, cusp, rep) -> bool:
    """Whether `cusp` lies in the class of `rep`; on M2+ the classes of p/q
    and -p/q are one (the star involution), so either may match."""
    p, q = cusp
    return cusp_equiv(space.N, cusp, rep) or (
        _is_plus(space) and cusp_equiv(space.N, (-p, q), rep)
    )


def cuspidal_dim(space) -> int:
    """dim S2 = 2 * genus, or dim S2+ = genus on the sign +1 quotient."""
    return space.genus if _is_plus(space) else 2 * space.genus


def boundary(space, vec: dict) -> list:
    """Boundary of a free-coordinate vector: its coefficient on each cusp class."""
    out = [0] * len(space.cusps)
    for c, v in vec.items():
        for sgn, cusp in zip((-1, 1), manin_path(space, c)):
            for k, rep in enumerate(space.cusps):
                if _same_cusp(space, cusp, rep):
                    out[k] += sgn * v
                    break
            else:
                raise IntegrityError(f"level {space.N}: cusp {cusp} is in no known class")
    return out


def cuspidal_basis(space) -> tuple[tuple[int, dict[int, int]], ...]:
    """Integer basis of the boundary kernel, as (leading free column, vector)."""
    rows: list[dict[int, int]] = [{} for _ in space.cusps]
    for c in space.free:
        for k, v in enumerate(boundary(space, {c: 1})):
            if v:
                rows[k][c] = v
    bpivots = rref_highest_lead_first(rows)
    basis = []
    for f in [c for c in space.free if c not in bpivots]:
        touching = [(c2, row) for c2, row in bpivots.items() if f in row]
        scale = 1
        for c2, row in touching:
            scale = lcm(scale, row[c2])
        vec = {f: scale}
        for c2, row in touching:
            vec[c2] = -row[f] * (scale // row[c2])
        basis.append((f, _reduce_int_row(vec, min(vec))))
    if len(basis) != cuspidal_dim(space):
        raise IntegrityError(
            f"level {space.N}: cuspidal dimension {len(basis)} != {cuspidal_dim(space)}"
        )
    return tuple(basis)


def reps(space) -> list[tuple[int, int]]:
    """The P^1 points of `space` in order, as (g, v) pairs."""
    return list(zip(space.rep_g, space.rep_v))


def _over(v: int, den: int):
    """v / den, as an int where den is 1."""
    return v if den == 1 else Fraction(v, den)


def point_expression(space, i: int) -> dict:
    """The expression of the i-th P^1 point in the free generators."""
    s, den = space.sign[i], space.den
    return {c: _over(s * v, den) for c, v in space.row_of[i].items()} if s else {}


def manin_path(space, i: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Endpoints {b/d, a/c} of the modular symbol of the i-th P^1 point."""
    a, b, c, d = _sl2_lift(space.rep_g[i], space.rep_v[i])
    return _cusp_normalize(b, d), _cusp_normalize(a, c)


def convergent_chain(p: int, q: int) -> list[tuple[int, int]]:
    """The Manin symbols (q_k : (-1)^(k-1) q_(k-1)) whose paths sum to {oo, p/q}.

    q_k runs over the denominators of the continued-fraction convergents of
    p/q, with q_(-1) = 0; the chain of oo itself (q = 0) is empty.
    """
    if q < 0:
        p, q = -p, -q
    chain = []
    qm2, qm1, sign = 1, 0, -1  # q_(k-2), q_(k-1), (-1)^(k-1) at k = 0
    while q:
        a = p // q
        p, q = q, p - a * q
        qk = a * qm1 + qm2
        chain.append((qk, sign * qm1))
        qm2, qm1, sign = qm1, qk, -sign
    return chain


def hermite_split(A: int, B: int, C: int, D: int):
    """Split M = [[A, B], [C, D]] with det M > 0 as gamma * [[a, b], [0, e]].

    gamma is in SL2(Z), a = gcd(A, C) > 0, a*e = det M and 0 <= b < e
    (Cremona, Algorithms for Modular Elliptic Curves, 2.4).  The Bezout pair
    x*A + y*C = a takes a gcd and one modular inverse: with p = A/a and
    q = C/a, x = p^-1 mod |q| and y = (1 - x*p)/q, or x, y = p, 0 when C = 0
    (and x = 0, y = q when |q| = 1).  That form is unique, so the split is
    the same for any Bezout pair.  Returns (gamma, a, b, e), gamma as a
    4-tuple by rows.  `ModSymSpace.al_trace_cuspidal` makes the same split
    inline, reading only gamma's bottom row and b/e.
    """
    a = gcd(A, C)
    p, q = A // a, C // a
    if q:
        x = pow(p, -1, abs(q))
        y = (1 - x * p) // q
    else:
        x, y = p, 0
    e = (A * D - B * C) // a
    t, b = divmod(x * B + y * D, e)
    return (p, t * p - y, q, t * q + x), a, b, e


def _image_symbols(M) -> list[tuple[int, int]]:
    """The Manin symbols (c : d) whose paths sum to -M{0, oo}, for an integer
    matrix M of positive determinant: the convergent chain of b/e after the
    split M = gamma * [[a, b], [0, e]], as a list.  The trace walks the same
    chain inline, without the sign of d, which M2+ does not see; see
    `ModSymSpace.al_trace_cuspidal`."""
    (_, _, um1, um2), _, p, q = hermite_split(*M)
    symbols = []
    sign = -1  # (-1)^(k-1) at k = 0
    while q:
        a = p // q
        p, q = q, p - a * q
        uk = a * um1 + um2
        symbols.append((uk, sign * um1))
        um2, um1, sign = um1, uk, -sign
    return symbols


def path_vector(space, start, end) -> dict[int, Fraction]:
    """The class of {start, end} in free coordinates; cusps are (p, q) pairs."""
    vec: dict[int, int] = {}
    for sgn, cusp in ((-1, start), (1, end)):
        for c, d in convergent_chain(*cusp):
            j = space.p1_index(c, d)  # point_expression, inlined, over den
            s = space.sign[j]
            for f, v in space.row_of[j].items() if s else ():
                vec[f] = vec.get(f, 0) + sgn * s * v
    return {f: _over(v, space.den) for f, v in vec.items() if v}


def al_columns(space, Q: int) -> dict[int, dict[int, Fraction]]:
    """The image under w_Q of each free generator, in free coordinates."""
    mat = space.al_matrix(Q)
    cols = {}
    for c in space.free:
        start, end = manin_path(space, c)
        cols[c] = path_vector(space, space._moebius(mat, start), space._moebius(mat, end))
    return cols


def full_trace(space, Q: int):
    """Trace of w_Q on the cuspidal subspace of `space`, from the diagonal of
    w_Q on the free generators, each image read from its mapped endpoints by
    `path_vector`, minus (#cusp classes fixed - 1)."""
    cols = al_columns(space, Q)
    mat = space.al_matrix(Q)
    fixed = sum(_same_cusp(space, space._moebius(mat, rep), rep) for rep in space.cusps)
    return sum(cols[c].get(c, 0) for c in space.free) - (fixed - 1)


def action_on_basis(space, basis, cols) -> list[list[Fraction]]:
    """Matrix of the operator with free-generator images `cols` on `basis`."""
    k = len(basis)
    mat = [[Fraction(0)] * k for _ in range(k)]
    for j, (_, bvec) in enumerate(basis):
        img: dict[int, Fraction] = {}
        for c, v in bvec.items():
            for col2, w in cols[c].items():
                img[col2] = img.get(col2, Fraction(0)) + v * w
        img = {c2: v for c2, v in img.items() if v}
        if any(boundary(space, img)):
            raise IntegrityError("operator image left the cuspidal subspace")
        residual = dict(img)
        for i, (f, bvec2) in enumerate(basis):
            coef = Fraction(img.get(f, 0), bvec2[f])
            mat[i][j] = coef
            if coef:
                for c2, v in bvec2.items():
                    residual[c2] = residual.get(c2, Fraction(0)) - coef * v
        if any(residual.values()):
            raise IntegrityError("cuspidal image not in the kernel basis span")
    return mat


def al_operator(space, Q: int) -> tuple[tuple[Fraction, ...], ...]:
    """Full exact matrix of w_Q on the cuspidal basis; asserts it is an involution."""
    mat = action_on_basis(space, cuspidal_basis(space), al_columns(space, Q))
    k = len(mat)
    # square den * mat in integers: (den * mat)^2 = den^2 exactly when mat^2 = 1
    den = lcm(1, *(x.denominator for row in mat for x in row))
    ints = [[int(x * den) for x in row] for row in mat]
    for i in range(k):
        for j in range(k):
            val = sum(ints[i][t] * ints[t][j] for t in range(k))
            if val != (den * den if i == j else 0):
                raise IntegrityError(
                    f"w_{Q} at level {space.N} does not square to the identity"
                )
    return tuple(tuple(row) for row in mat)


def invariant_genus_eigenspace(space, W=()) -> int:
    """Genus of X0(N)/W from the intersection of the generators' +1-eigenspaces
    on the cuspidal subspace of `space`: all of it on M2+, half of it on M2."""
    sub = ALSubgroup.of(space.N, W)
    k = cuspidal_dim(space)
    rows = []
    for g in sub.generators():
        op = al_operator(space, g)
        for i in range(k):
            row = {j: op[i][j] - (1 if i == j else 0) for j in range(k)}
            den = lcm(*(v.denominator for v in row.values()), 1)
            rows.append({j: int(v * den) for j, v in row.items() if v})
    dim = k - len(_int_rref(rows))
    if _is_plus(space):
        return dim
    if dim % 2:
        raise IntegrityError("odd eigenspace dimension")
    return dim // 2


# -- the subgroup lattice ------------------------------------------------


def extend_subgroup(sub: ALSubgroup, d: int) -> ALSubgroup:
    """The subgroup that sub and w_d span."""
    return ALSubgroup(sub.level, (*sub.elements, d))


def subgroup_lattice_by_growth(level: int) -> list[ALSubgroup]:
    """Every subgroup of B(N) in `ALSubgroup.sort_key` order, as the library
    grew it before it read the subspaces of F2^omega: each subgroup of order
    2^(k+1) extends one of order 2^k by an element outside it, so the
    lattice grows one layer per round from the trivial group.  The
    generators are left for each subgroup to find from its elements."""
    nonzero = hall_divisors(level)[1:]
    found = grow = {ALSubgroup.trivial(level)}
    while grow:
        grow = {extend_subgroup(s, d) for s in grow for d in nonzero if d not in s} - found
        found |= grow
    return sorted(found, key=ALSubgroup.sort_key)


# -- isomorphism reductions ----------------------------------------------


def iso_reduce_v3(N: int, W) -> ALSubgroup:
    """Twist a subgroup by w9 on generators whose prime-to-3 part is 2 mod 3;
    the two quotients are isomorphic.  Applying it twice gives W back."""
    sub = ALSubgroup.of(N, W)
    if factor(N).valuation(3) != 2:
        raise ValueError(f"V3 twist needs 9 || N, got {N}")
    gens = []
    for d in sub.generators():
        m = d
        while m % 3 == 0:
            m //= 3
        gens.append(hall_product(d, 9) if m % 3 == 2 else d)
    return ALSubgroup(N, gens)


# -- involution groups ---------------------------------------------------


def compose_reference(a: ExtInvolution, b: ExtInvolution) -> ExtInvolution:
    """The former `compose` as it was before its rules moved into a core the
    involution table runs on hoisted level constants: it reads the level's
    constants on each call and builds the product before checking it."""
    if a.level != b.level:
        raise ValueError("cannot compose involutions of different levels")
    N = a.level
    alpha = factor(N).valuation(2)
    modulus = 4 if alpha >= 3 else 3
    fword = _f_word(alpha) if alpha >= 2 else None
    eps2 = 1 if alpha >= 2 and (1 << alpha) % 3 == 2 else 0

    twist = 0
    if a.e3 and b.word2 != _ID2:
        if b.word2 != fword:
            raise OrderViolation(
                f"no composition rule for {b.name} across V3 (level {N})",
                rule="s2-v3-mix",
            )
        twist ^= eps2
    if b.e3 and _coprime3(a.tail) % 3 == 2:
        twist ^= 1
    word = _word_mul(a.word2, b.word2, modulus) if alpha >= 2 else _ID2
    if alpha < 2 and (a.word2 != _ID2 or b.word2 != _ID2):
        raise IntegrityError("2-part word at a level with 4 not dividing N")
    v3 = (a.e3 + b.e3) % 2
    tail = hall_product(a.tail, b.tail)
    if twist:
        if N % 9:
            raise IntegrityError("w9 twist outside a 9 || N level")
        tail = hall_product(tail, 9)

    # validity of the resulting word
    if word != _ID2 and word[1] == 0 and not (word == (2, 0) and alpha >= 3):
        raise OrderViolation(
            f"{a.name} * {b.name} has order > 2 at level {N}",
            rule="two-part-rotation",
        )
    result = ExtInvolution(N, word, v3, tail)
    if v3:
        if word not in (_ID2, fword):
            raise OrderViolation(
                f"{a.name} * {b.name} mixes an S2-part with V3 (level {N})",
                rule="s2-v3-mix",
            )
        if _coprime3(result._al_part()) % 3 != 1:
            raise OrderViolation(
                f"{a.name} * {b.name} has order 4 at level {N}",
                rule="v3-tail-2-mod-3",
            )
    return result


def closure_by_compose(N: int, generators) -> frozenset:
    """The elements of the group a generator list spans, by doubling with
    `compose_reference`: a generator g outside G adds the coset G*g.  Raises
    the OrderViolation `group_closure` raises, with the same rule and
    message."""
    gens = []
    for g in generators:
        if isinstance(g, str):
            g = parse_element(N, g)
        elif not isinstance(g, ExtInvolution):
            g = ExtInvolution.al(N, g)
        if g.level != N:
            raise ValueError("generator level mismatch")
        gens.append(g)
    elems = [ExtInvolution.identity(N)]
    for g in gens:
        if g in elems:
            continue
        try:
            elems += [compose_reference(e, g) for e in elems]
        except OrderViolation as exc:
            raise OrderViolation(
                f"<{', '.join(e.name for e in gens)}> is not an involution group: {exc}",
                rule=exc.rule,
            ) from exc
    group = frozenset(elems)
    if len(group) < len(elems):
        raise IntegrityError(f"closure of {len(group)} elements is not a 2-group")
    return group


def hurwitz_genus_reference(N: int, elements) -> int:
    """The Hurwitz genus h of X0(N)/G, written out for the elements of G
    (identity included): |G| (2h - 2) + sum of fix_count = 2 g(X0(N)) - 2,
    solved in fractions from `fix_count` and `genus_x0` alone, with no
    table, memo or group of the library.  A fractional or negative h raises."""
    elements = list(elements)
    fixed = sum(fix_count(e) for e in elements if not e.is_identity)
    h = Fraction(2 * genus_x0(N) - 2 - fixed, 2 * len(elements)) + 1
    if h.denominator != 1 or h < 0:
        raise IntegrityError(f"no Hurwitz genus for {sorted(e.name for e in elements)} at {N}")
    return int(h)


def _closures_with_full(N: int, extras):
    """(v, group) for each v in `extras` whose group with B(N) closes."""
    full = list(ALSubgroup.full(N).generators())
    out = []
    for v in extras:
        try:
            out.append((v, closure_by_compose(N, full + [v])))
        except OrderViolation:
            continue
    return out


def two_group_options(N: int, sub: ALSubgroup, g: int, found) -> list:
    """The (order, tag) options of `atlas._two_group_options`, closing B(N)
    with V2 (8 | N) and with V3 (9 || N) here; `found` is the pair's search."""
    if g < 6:
        return []
    out = []
    index = (1 << factor(N).omega) // sub.order
    if index > 1 and all(h < g for v, _, h in found if v.kind == "al"):
        out.append((index, "image of the full Atkin-Lehner group"))
    extras = []
    if N % 8 == 0:
        extras.append(ExtInvolution.v2(N))
    if N % 9 == 0 and (N // 9) % 3:
        extras.append(ExtInvolution.v3(N))
    genus = {v: h for v, _, h in found}
    for extra, big in _closures_with_full(N, extras):
        if all(genus[e] is not None and genus[e] < g for e in big if e in genus):
            out.append((
                len(big) // sub.order,
                f"image of the Atkin-Lehner group extended by {extra.name}",
            ))
    return out


def hyperelliptic_factoring(N: int, sub: ALSubgroup, g: int):
    """The result of `atlas._hyperelliptic_factoring`, taking the first
    normalizer involution whose group with B(N) has genus 0 from closures
    made here."""
    if g < 6 or factor(N).is_squarefree:
        return None
    try:
        gate = star_gate(N)
    except ValueError:
        return None
    if gate.kind != "hyperelliptic":
        return None
    index = (1 << factor(N).omega) // sub.order
    if g - 1 <= index * (gate.star_genus - 1):
        return None
    cands = [v for v in level_involutions(N) if v.kind != "al"]
    for v, G in _closures_with_full(N, cands):
        if quotient_genus_hurwitz(N, G) == 0:
            return RuleResult(
                "hyperelliptic-factoring",
                "a ramified cover of a hyperelliptic curve forces the (central) "
                "bielliptic involution to induce its hyperelliptic involution",
                "excludes",
                (N, sub.label(), g, gate.star_genus),
                detail=f"hyperelliptic involution of the full quotient: {v.name}",
            )
    return None


# -- number theory -------------------------------------------------------


def class_number_oracle(D: int) -> int:
    """Brute force: test the reduction conditions literally on every triple
    with 0 < a <= sqrt(|D|/3) and |b| <= a."""
    validate_discriminant(D)
    count = 0
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if not (abs(b) <= a <= c):
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            count += 1
    return count


def cm_fix_oracle(N: int, Q: int) -> int:
    """#(w_Q, X0(N)) for squarefree N via CM class numbers.

    Fixed points carry complex multiplication by the orders whose
    discriminant supports an element of norm Q, with one local embedding
    factor per prime of N/Q (two at p=2 for the conductor-2 order -4Q).
    At Q = N > 3 this is h(-4N), plus h(-N) when N = 3 (mod 4).
    """
    if not factor(N).is_squarefree:
        raise ValueError(f"the CM count needs squarefree N, got {N}")
    M = N // Q
    if Q == 2:
        discs = [-4, -8]
    elif Q == 3:
        discs = [-3, -12]
    elif Q % 4 == 3:
        discs = [-Q, -4 * Q]
    else:
        discs = [-4 * Q]
    total = 0
    for D in discs:
        term = class_number(D)
        for p, _ in factor(M).factors:
            if p == 2 and D == -4 * Q and Q % 4 == 3:
                term *= 2
            else:
                term *= 1 + kronecker(D, p)
        total += term
    return total


# -- the paper's tables -------------------------------------------------

# Cells where the published genus table is internally inconsistent; the
# package's table holds the corrected value (tests/test_acceptance.py has
# the proof).
PRINTED_DEVIATIONS_TEXT = """\
# N generators printed corrected
294 w3 21 20
294 w6 21 20
294 w147 17 18
294 w294 17 18
"""


def printed_pair_rows(text: str, nfields: int, read_value) -> dict:
    """(N, generators as printed) -> `read_value` of the rest of each row of
    a pair table, "N w<d>,w<e> ..." with `nfields` fields."""

    def read_row(N, gens, *rest):
        return (parse_level(N), tuple(parse_w(w) for w in gens.split(","))), read_value(*rest)

    return _read_table(text, None, nfields, read_row)


def printed_deviations() -> dict:
    """(N, generators) -> (printed, corrected) for the misprinted genus cells."""
    return printed_pair_rows(
        PRINTED_DEVIATIONS_TEXT, 4, lambda *cells: _numbers(cells, "genus")
    )


def witness_family(witness) -> str:
    """The family of a witness as the witness table names it: `red` for a
    witness found at a reduced level, else its element's kind."""
    return "red" if witness.chain else witness.element.kind


# -- reports -------------------------------------------------------------


def report_json_reference(records) -> str:
    blob = []
    for r in sorted(records, key=PairRecord.sort_key):
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
