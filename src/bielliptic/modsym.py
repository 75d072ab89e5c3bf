"""Weight-2 modular symbols for Gamma0(N) over exact rationals.

The space M2 is presented by Manin symbols indexed by P^1(Z/N).  A point
(c : d) is named by the lexicographic minimum of its orbit under the units of
Z/N (Cremona, Algorithms for Modular Elliptic Curves, 2.2): (0, 1) when
c = 0, else (g, v) with g = gcd(c, N) and v the least second coordinate over
the units fixing g, those t = 1 (mod N/g), at most g of them.  A space keeps
its points sorted and one such stabiliser per divisor g < N, so a lookup is
that minimum plus a binary search, and no map from pairs to indices exists.

The two-term relation x + x.sigma = 0 is eliminated by pairing, the
three-term relation x + x.tau + x.tau^2 = 0 by sparse integer Gaussian
elimination: forward over the relations sorted by lead column, highest
first, then one back-substitution from the highest pivot down, in which each
row is cleared with rows that are already final.  The reduced echelon form
is unique, so the row order changes only the fill-in, never the result.  Every
generator gets an exact expression in a free basis, with int coefficients
where the pivot is 1 and Fractions otherwise.  The builder asserts
dim M2 = 2*genus + #cusps - 1 and keeps one representative per cusp class,
taken from the free generators' endpoints.

Atkin-Lehner operators act through a determinant-Q witness matrix; a general
path {a, b} = {oo, b} - {oo, a} is converted back to Manin symbols with the
continued-fraction convergent chains of a and b.  A trace maps both endpoints
of each free generator's path, drops the entries the two chains share at
their start (the same symbols with opposite signs) and looks up only the
rest.  The boundary map sends M2 onto the degree-zero cusp divisors and
commutes with w_Q (Stein, Modular Forms: A Computational Approach, ch. 8),
so on the cuspidal subspace S2

    tr(w_Q | S2) = tr(w_Q | M2) - (#cusp classes fixed by w_Q - 1),

and a trace needs only the diagonal of w_Q on the free generators.  Quotient
genera come from dim S2^W = (1/|W|) * sum of traces, which for an elementary
abelian 2-group is the same subspace the +1-eigenspace intersection of the
generators cuts out.

The cuspidal subspace itself (the kernel of the boundary map, of dimension
2*genus) is built on demand, only for the reference routes: full operator
matrices and the eigenspace genus.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .errors import IntegrityError
from .ntheory import _MEMO_TABLES, ALSubgroup, egcd, psi
from .x0invariants import cusp_count, genus_x0


class P1Element(NamedTuple):
    """Canonical representative of a point of P^1(Z/N)."""

    c: int
    d: int


def _stabiliser(N: int, g: int) -> tuple[int, ...]:
    """The units t = 1 (mod N/g) of Z/N: those fixing the first coordinate g."""
    return tuple(t for t in range(1, N, N // g) if gcd(t, N) == 1)


def _p1_canonical(N: int, c: int, d: int, stabiliser) -> tuple[int, int]:
    """Lexicographic minimum of the unit orbit of (c : d) in P^1(Z/N), N > 1.

    For c = 0 it is (0, 1), for a unit c it is (1, d/c).  Otherwise the first
    coordinate is g = gcd(c, N): a unit s with s*c = g (mod N) is c/g inverted
    mod N/g, lifted by multiples of N/g until it is a unit mod N, and the units
    keeping g fixed are `stabiliser(g)`, so the second coordinate is
    min(s*d*t) over those t.
    """
    c %= N
    d %= N
    if c == 0:
        if gcd(d, N) != 1:
            raise ValueError(f"({c}:{d}) is not a point of P1(Z/{N})")
        return 0, 1
    g = gcd(c, N)
    if g == 1:
        return 1, pow(c, -1, N) * d % N
    if gcd(g, d) != 1:
        raise ValueError(f"({c}:{d}) is not a point of P1(Z/{N})")
    M = N // g
    s = pow(c // g, -1, M)
    while gcd(s, N) != 1:
        s += M
    e = s * d % N
    return g, min([e * t % N for t in stabiliser(g)])


def p1_normalize(N: int, c: int, d: int) -> P1Element:
    """Canonical representative: lexicographic minimum of the unit-scaling orbit."""
    if N == 1:
        return P1Element(0, 1)
    return P1Element(*_p1_canonical(N, c, d, lambda g: _stabiliser(N, g)))


def _cusp_normalize(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    if g:
        p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    if q == 0:
        p = 1
    return p, q


def cusp_equiv(N: int, c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Gamma0(N)-equivalence of cusps p1/q1 and p2/q2 (reduced fractions)."""
    p1, q1 = c1
    p2, q2 = c2
    _, s1, _ = egcd(p1, q1)
    _, s2, _ = egcd(p2, q2)
    m = gcd(q1 * q2, N)
    if m == 0:
        m = N
    return (s1 * q2 - s2 * q1) % m == 0


def _sl2_lift(c: int, d: int) -> tuple[int, int, int, int]:
    """Complete a coprime bottom row (c, d) to [[a, b], [c, d]] in SL2(Z)."""
    g, x, y = egcd(c, d)
    if g != 1:
        raise IntegrityError(f"bottom row ({c},{d}) not coprime")
    return y, -x, c, d


def _convergent_chain(p: int, q: int) -> list[tuple[int, int]]:
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


def _reduce_int_row(row: dict) -> dict:
    row = {k: v for k, v in row.items() if v}
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    if g > 1:
        row = {k: v // g for k, v in row.items()}
    if row[min(row)] < 0:
        row = {k: -v for k, v in row.items()}
    return row


def _eliminate(row: dict, piv: dict, col: int) -> None:
    """Clear column `col` of `row` in place with the pivot row `piv`."""
    a, b = piv[col], row[col]
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in piv.items():
        x = row.get(k, 0) - b * v
        if x:
            row[k] = x
        else:
            del row[k]


def _int_rref(rows) -> dict:
    """Sparse reduced echelon form over Z; returns {pivot column: row dict}.

    Rows are gcd-normalized with positive pivots, pivot columns eliminated
    from every other row.  The reduced echelon form of a row space is unique
    and each of its rows is stored primitive with a positive pivot, so the
    result depends on the row space only, not on the order of the rows.  The
    forward phase is therefore free to take the nonzero rows highest lead
    column first (a stable sort), which keeps fill-in small on the three-term
    relations: at N = 840 the whole elimination makes 1 532 row operations
    where Manin-symbol order makes 40 373.  The back-substitution runs once,
    from the highest pivot down: the other pivot columns a row holds are
    higher, so their rows are already final and clearing them brings in
    non-pivot columns only.
    """
    rows = [row for row in ({k: v for k, v in r.items() if v} for r in rows) if row]
    rows.sort(key=min, reverse=True)
    pivots: dict[int, dict] = {}
    for row in rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _reduce_int_row(row)
                break
            _eliminate(row, piv, lead)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for j in [j for j in row if j != col and j in pivots]:
            _eliminate(row, pivots[j], j)
        if row[col] != 1:
            pivots[col] = _reduce_int_row(row)
    return pivots


class ModSymSpace:
    """Built modular-symbols data for one level.  Immutable once constructed;
    the cuspidal basis is computed on first use."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("level must be positive")
        self.N = N
        self.genus = genus_x0(N)
        self.nu_inf = cusp_count(N)
        self._build()
        self._trace_cache: dict[int, int] = {}
        self._trace_lock = threading.Lock()

    # -- construction -------------------------------------------------

    def _build(self):
        N = self.N
        # per divisor g < N, the points (g : v) in increasing v: an unseen v
        # is its orbit's minimum, and marks the orbit v * stabiliser(g)
        self._stabilisers = {
            g: _stabiliser(N, g) for g in range(1, N) if N % g == 0
        }
        reps = [P1Element(0, 1)]
        for g, stab in self._stabilisers.items():
            marked = bytearray(N)
            for v in range(N):
                if marked[v] or gcd(v, g) != 1:
                    continue
                reps.append(P1Element(g, v))
                for t in stab:
                    marked[v * t % N] = 1
        self.reps = tuple(reps)
        n = len(reps)
        if n != psi(N):
            raise IntegrityError(f"P1(Z/{N}) has {n} points, expected psi = {psi(N)}")
        look = self.p1_index

        # two-term relation: identify x.sigma with -x, sigma: (c,d) -> (d,-c)
        part: dict[int, tuple[int, int]] = {}
        for i, (c, d) in enumerate(reps):
            if i in part:
                continue
            j = look(d, -c)
            if j == i:
                part[i] = (0, i)
            else:
                part[i] = (1, i)
                part[j] = (-1, i)
        # three-term relation rows over the paired coordinates,
        # tau: (c,d) -> (d, -c-d)
        rows = []
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            c, d = reps[i]
            j = look(d, -c - d)
            k = look(-c - d, c)
            row: dict[int, int] = {}
            for m in (i, j, k):
                seen[m] = True
                s, col = part[m]
                if s:
                    row[col] = row.get(col, 0) + s
            row = {c2: v for c2, v in row.items() if v}
            if row:
                rows.append(row)
        pivots = _int_rref(rows)

        kept = sorted({part[i][1] for i in range(n) if part[i][0]})
        free = [c for c in kept if c not in pivots]
        self.free = tuple(free)
        self.dim = len(free)
        expected = 2 * self.genus + self.nu_inf - 1
        if self.dim != expected:
            raise IntegrityError(
                f"level {N}: modular-symbols dimension {self.dim} != {expected}"
            )

        expr_col: dict[int, dict] = {c: {c: 1} for c in free}
        for c, row in pivots.items():
            p = row[c]
            expr_col[c] = {
                k: -v if p == 1 else Fraction(-v, p) for k, v in row.items() if k != c
            }
        expr: list[dict] = []
        for i in range(n):
            s, col = part[i]
            if s == 0:
                expr.append({})
            elif s == 1:
                expr.append(expr_col[col])
            else:
                expr.append({k: -v for k, v in expr_col[col].items()})
        self.expr = tuple(expr)

        # one representative per cusp class, from the free generators' endpoints;
        # the boundary map is onto, so every class shows up (oo is seeded for N = 1)
        cusps = [(1, 0)]
        for c in free:
            for cusp in self._manin_path(c):
                if not any(cusp_equiv(N, cusp, rep) for rep in cusps):
                    cusps.append(cusp)
        self.cusps = tuple(cusps)
        if len(cusps) != self.nu_inf:
            raise IntegrityError(
                f"level {N}: found {len(cusps)} cusp classes, expected {self.nu_inf}"
            )

    # -- boundary map and cuspidal subspace (reference routes only) ---

    def _boundary(self, vec: dict) -> list:
        """Boundary of a free-coordinate vector: its coefficient on each cusp class."""
        out = [0] * len(self.cusps)
        for c, v in vec.items():
            for sgn, cusp in zip((-1, 1), self._manin_path(c)):
                for k, rep in enumerate(self.cusps):
                    if cusp_equiv(self.N, cusp, rep):
                        out[k] += sgn * v
                        break
                else:
                    raise IntegrityError(f"level {self.N}: cusp {cusp} is in no known class")
        return out

    @cached_property
    def cuspidal_basis(self) -> tuple[tuple[int, dict[int, int]], ...]:
        """Integer basis of the boundary kernel, as (leading free column, vector)."""
        rows: list[dict[int, int]] = [{} for _ in self.cusps]
        for c in self.free:
            for k, v in enumerate(self._boundary({c: 1})):
                if v:
                    rows[k][c] = v
        bpivots = _int_rref(rows)
        basis = []
        for f in [c for c in self.free if c not in bpivots]:
            touching = [(c2, row) for c2, row in bpivots.items() if f in row]
            scale = 1
            for c2, row in touching:
                scale = lcm(scale, row[c2])
            vec = {f: scale}
            for c2, row in touching:
                vec[c2] = -row[f] * (scale // row[c2])
            basis.append((f, _reduce_int_row(vec)))
        if len(basis) != 2 * self.genus:
            raise IntegrityError(
                f"level {self.N}: cuspidal dimension {len(basis)} != "
                f"2*genus = {2 * self.genus}"
            )
        return tuple(basis)

    # -- symbol plumbing ----------------------------------------------

    def p1_index(self, c: int, d: int) -> int:
        """Position in `reps` (sorted) of the point (c : d)."""
        if self.N == 1:
            return 0
        rep = _p1_canonical(self.N, c, d, self._stabilisers.__getitem__)
        return bisect_left(self.reps, rep)

    def _manin_path(self, i: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Endpoints {b/d, a/c} of the modular symbol of generator i."""
        a, b, c, d = _sl2_lift(*self.reps[i])
        return _cusp_normalize(b, d), _cusp_normalize(a, c)

    def symbols_from_infinity(self, p: int, q: int) -> list[int]:
        """Manin generator indices (coefficient +1 each) expressing {oo, p/q}."""
        return [self.p1_index(c, d) for c, d in _convergent_chain(p, q)]

    def path_vector(self, start, end) -> dict[int, Fraction]:
        """The class of {start, end} in free coordinates; cusps are (p, q) pairs."""
        vec: dict[int, Fraction] = {}
        for sgn, cusp in ((-1, start), (1, end)):
            for idx in self.symbols_from_infinity(*cusp):
                for col, v in self.expr[idx].items():
                    vec[col] = vec.get(col, Fraction(0)) + sgn * v
        return {col: v for col, v in vec.items() if v}

    # -- Atkin-Lehner action ------------------------------------------

    def al_matrix(self, Q: int) -> tuple[int, int, int, int]:
        """Determinant-Q witness of shape (Q*a, b; N*c, Q*d), smallest |b| then |c|."""
        N = self.N
        if N % Q or gcd(Q, N // Q) != 1:
            raise ValueError(f"{Q} is not a Hall divisor of {N}")
        if Q == 1:
            return (1, 0, 0, 1)
        if Q == N:
            return (0, -1, N, 0)
        M = N // Q
        _, x, y = egcd(Q, M)  # Q*x + M*y = 1
        y %= Q
        if abs(y - Q) < y:
            y -= Q
        x = (1 - M * y) // Q
        return (Q * x, -y, N, Q)

    @staticmethod
    def _moebius(mat, cusp):
        a, b, c, d = mat
        p, q = cusp
        return _cusp_normalize(a * p + b * q, c * p + d * q)

    def _al_columns(self, Q: int) -> dict[int, dict[int, Fraction]]:
        mat = self.al_matrix(Q)
        cols = {}
        for c in self.free:
            start, end = self._manin_path(c)
            cols[c] = self.path_vector(self._moebius(mat, start), self._moebius(mat, end))
        return cols

    def al_trace_cuspidal(self, Q: int) -> int:
        """Trace of w_Q on the cuspidal subspace (exact integer).

        The diagonal of w_Q on the free generators gives the trace on M2; the
        boundary part contributes #(cusp classes fixed by w_Q) - 1.  The image
        of generator c is {oo, end} - {oo, start} for the images start, end of
        its endpoints.  Where the two convergent chains begin with the same
        entries, the same Manin symbols enter with coefficients -1 and +1 and
        cancel, so only the entries after the common prefix are looked up.
        """
        if Q == 1:
            return 2 * self.genus
        with self._trace_lock:
            if Q in self._trace_cache:
                return self._trace_cache[Q]
        mat = self.al_matrix(Q)
        look, expr = self.p1_index, self.expr
        diag = 0
        for c in self.free:
            start, end = self._manin_path(c)
            from_start = _convergent_chain(*self._moebius(mat, start))
            from_end = _convergent_chain(*self._moebius(mat, end))
            k = 0
            for x, y in zip(from_start, from_end):
                if x != y:
                    break
                k += 1
            for cd in from_start[k:]:
                diag -= expr[look(*cd)].get(c, 0)
            for cd in from_end[k:]:
                diag += expr[look(*cd)].get(c, 0)
        fixed = sum(
            cusp_equiv(self.N, self._moebius(mat, cusp), cusp) for cusp in self.cusps
        )
        tr = diag - (fixed - 1)
        if tr.denominator != 1 or tr % 2 or abs(tr) > 2 * self.genus:
            raise IntegrityError(
                f"trace {tr} of w_{Q} at level {self.N} is not an even integer "
                f"of size at most 2*genus = {2 * self.genus}"
            )
        with self._trace_lock:
            self._trace_cache.setdefault(Q, int(tr))
        return int(tr)

    def boundary_of(self, vec: dict[int, Fraction]) -> bool:
        """Whether a free-coordinate vector lies in the cuspidal subspace."""
        return not any(self._boundary(vec))


_CACHE: dict[int, ModSymSpace] = {}
_CACHE_LOCK = threading.Lock()


def build_space(N: int) -> ModSymSpace:
    """Build (or fetch the cached) space for one level."""
    space = _CACHE.get(N)
    if space is None:
        space = ModSymSpace(N)
        with _CACHE_LOCK:
            space = _CACHE.setdefault(N, space)
    return space


def clear_cache() -> None:
    """Empty the space cache and every per-level memo table (`ntheory.memoise`)."""
    with _CACHE_LOCK:
        _CACHE.clear()
        for table in _MEMO_TABLES.values():
            table.clear()


@dataclass(frozen=True)
class ALOperator:
    """Exact action of w_Q on the cuspidal basis of one level."""

    level: int
    Q: int
    matrix_entries: tuple[int, int, int, int]
    action: tuple[tuple[Fraction, ...], ...]

    def trace(self) -> int:
        tr = sum(self.action[i][i] for i in range(len(self.action)))
        return int(tr)


def _action_on_basis(space: ModSymSpace, cols) -> list[list[Fraction]]:
    basis = space.cuspidal_basis
    k = len(basis)
    mat = [[Fraction(0)] * k for _ in range(k)]
    for j, (_, bvec) in enumerate(basis):
        img: dict[int, Fraction] = {}
        for c, v in bvec.items():
            for col2, w in cols[c].items():
                img[col2] = img.get(col2, Fraction(0)) + v * w
        img = {c2: v for c2, v in img.items() if v}
        if not space.boundary_of(img):
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


def al_operator(space_or_level, Q: int) -> ALOperator:
    """Full exact matrix of w_Q on the cuspidal basis; asserts it is an involution."""
    space = (
        space_or_level
        if isinstance(space_or_level, ModSymSpace)
        else build_space(space_or_level)
    )
    cols = space._al_columns(Q)
    mat = _action_on_basis(space, cols)
    k = len(mat)
    for i in range(k):
        for j in range(k):
            val = sum(mat[i][t] * mat[t][j] for t in range(k))
            if val != (1 if i == j else 0):
                raise IntegrityError(
                    f"w_{Q} at level {space.N} does not square to the identity"
                )
    action = tuple(tuple(row) for row in mat)
    return ALOperator(space.N, Q, space.al_matrix(Q), action)


def invariant_genus(N: int, W=()) -> int:
    """Genus of X0(N)/W for an Atkin-Lehner subgroup W.

    Computed as half the dimension of the simultaneous +1-eigenspace of W on
    the cuspidal subspace; the dimension itself comes from the averaged trace
    over the (abelian, exponent-2) subgroup, which is the same number.
    """
    sub = ALSubgroup.of(N, W)
    space = build_space(N)
    total = 0
    for q in sub:
        total += space.al_trace_cuspidal(q)
    dim, rem = divmod(total, sub.order)
    if rem:
        raise IntegrityError(f"invariant dimension non-integral at N={N}, W={sub.label()}")
    if dim % 2:
        raise IntegrityError(f"odd invariant dimension at N={N}, W={sub.label()}")
    return dim // 2


def invariant_genus_eigenspace(N: int, W=()) -> int:
    """Same genus via explicit intersection of +1-eigenspaces of generators.

    Slower; retained as an independent route for cross-checking.
    """
    sub = ALSubgroup.of(N, W)
    space = build_space(N)
    k = 2 * space.genus
    rows = []
    for g in sub.generators():
        op = al_operator(space, g)
        for i in range(k):
            row = {j: op.action[i][j] - (1 if i == j else 0) for j in range(k)}
            den = lcm(*(v.denominator for v in row.values()), 1)
            rows.append({j: int(v * den) for j, v in row.items() if v})
    pivots = _int_rref(rows)
    dim = k - len(pivots)
    if dim % 2:
        raise IntegrityError("odd eigenspace dimension")
    return dim // 2
