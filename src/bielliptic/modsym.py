"""Weight-2 modular symbols for Gamma0(N) over exact rationals.

A space presents the sign +1 quotient M2+ = M2/(1 - eta) of the modular
symbols, where the star involution eta sends {a, b} to {-a, -b} and the
Manin symbol (c : d) to (-c : d).  eta commutes with every w_Q and splits
the cuspidal subspace S2 into two halves that are isomorphic as modules
for the Atkin-Lehner group (Cremona, Algorithms for Modular Elliptic
Curves, 2.5 on H+; Stein, Modular Forms: A Computational Approach, ch. 8 on
the sign), so

    tr(w_Q | S2) = 2 * tr(w_Q | S2+)

and a space of about half the dimension gives every trace.

The space is presented by Manin symbols indexed by P^1(Z/N).  A point
(c : d) is named by the lexicographic minimum of its orbit under the units of
Z/N (Cremona, 2.2): (0, 1) when c = 0, else (g, v) with g = gcd(c, N) and v
least.  With M = N/g, the point (c : d) is (g : r) for r = (c/g)^-1 * d
mod M, and two points with first coordinate g are equal exactly when their r
agree mod M (prime by prime, the units t = 1 (mod M), which fix g, carry v
to every v' = v (mod M) prime to g).  A space keeps one residue table of
length M per divisor g < N, read at r, so a lookup is a gcd, one inverse mod
M and a table read, and the eta-image (g : -v) of a stored point is slot
-v mod M of the same table.

The relations x + x.sigma = 0 and x = x.eta are eliminated by orbits:
sigma: (c, d) -> (d, -c) and eta commute, so each point's orbit is
{x, x.sigma, x.eta, x.sigma.eta}, stored as one column with signs +1, -1,
+1, -1, or sign 0 where the orbit forces x = -x (x = x.sigma or
x = x.sigma.eta).  The three-term relation x + x.tau + x.tau^2 = 0 is
eliminated over those columns by sparse integer Gaussian elimination; the
rows of x and of x.eta.sigma agree up to sign, so only one of each pair is
built.  The elimination runs forward over the relations in the order of
their first P^1 point, then one back-substitution from the highest pivot
down, in which each row is cleared with rows that are already final.  Every
column gets one exact expression row in the free basis, with int
coefficients where the pivot is 1 and Fractions otherwise; a point's
expression is its sign times its column's row, and is never stored.

The builder asserts dim M2+ = genus + nu+ - 1, where nu+ counts the cusp
classes up to eta (`x0invariants.cusp_count_plus`), stores the endpoints of
each free generator's path and keeps one representative per eta-orbit of
cusp classes, taken from those endpoints.  A reduced cusp p/q with
d = gcd(q, N) lies in the class keyed (d, u) with u = p*(q/d) mod
gcd(d, N/d); this is Cremona's equivalence criterion (Prop. 2.2.3) as a key.
eta sends u to -u, so the orbit is keyed (d, min(u, -u mod gcd(d, N/d))),
and neither the build nor the fixed-cusp count of a trace compares cusps
pairwise.

Atkin-Lehner operators act through a determinant-Q witness matrix; a general
path {a, b} = {oo, b} - {oo, a} is converted back to Manin symbols with the
continued-fraction convergent chains of a and b.  A trace maps the stored
endpoints of each free generator's path, drops the entries the two chains
share at their start (the same symbols with opposite signs) and looks up only
the rest.  The boundary map sends M2+ onto the degree-zero divisors on the
eta-orbits of cusps and commutes with w_Q (Stein, ch. 8), so on the
cuspidal subspace S2+

    tr(w_Q | S2+) = tr(w_Q | M2+) - (#cusp orbits fixed by w_Q - 1),

and a trace needs only the diagonal of w_Q on the free generators.  The
package reads only these traces, through `involutions.fix_al`, and takes
every quotient genus from them by a Hurwitz count.  `invariant_genus` is the
reference route the tests compare that count with (and the benchmark's
genus-large target): dim S2^W = (1/|W|) * sum of traces, which for an
elementary abelian 2-group is the same subspace the +1-eigenspace
intersection of the generators cuts out.

Only this route lives here.  The independent reference routes (all of M2
with its sigma-only pairing, the cuspidal subspace as the kernel of the
boundary map, full operator matrices and the genus from +1-eigenspaces) are
the test suite's oracles, in tests/oracles.py.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd

from .errors import IntegrityError
from .ntheory import _MEMO_TABLES, ALSubgroup, _is_hall_divisor, _need_level, egcd, psi
from .x0invariants import cusp_count_plus, genus_x0


def _cusp_normalize(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    if g:
        p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    if q == 0:
        p = 1
    return p, q


def _cusp_class(N: int, cusp: tuple[int, int]) -> tuple[int, int]:
    """Key of the Gamma0(N)-class of a reduced cusp p/q with q >= 0.

    The class is (d, p*(q/d) mod gcd(d, N/d)) with d = gcd(q, N): Cremona's
    pairwise criterion (Algorithms for Modular Elliptic Curves, Prop. 2.2.3)
    rewritten as a key, so equal keys are exactly equivalent cusps.
    """
    p, q = cusp
    d = gcd(q, N)
    return d, p * (q // d) % gcd(d, N // d)


def _cusp_orbit(N: int, cusp: tuple[int, int]) -> tuple[int, int]:
    """Key of the eta-orbit of a cusp class: eta sends p/q to -p/q, so the
    class key (d, u) to (d, -u), and the orbit is keyed by the smaller u."""
    d, u = _cusp_class(N, cusp)
    return d, min(u, -u % gcd(d, N // d))


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
    result depends on the row space only, not on the order of the rows; the
    order changes only the fill-in.  The back-substitution runs once, from the
    highest pivot down: the other pivot columns a row holds are higher, so
    their rows are already final and clearing them brings in non-pivot
    columns only.
    """
    rows = [row for row in ({k: v for k, v in r.items() if v} for r in rows) if row]
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


def _p1_points(N: int) -> tuple[tuple, dict]:
    """The points of P^1(Z/N) in order and one residue table per divisor g < N.

    Per divisor g the points (g : v) come in increasing v: the first v of
    each residue r = v mod N/g is its class's minimum, and `tables[g][r]`
    holds its position.
    """
    reps = [(0, 1)]
    tables = {}
    for g in range(1, N):
        if N % g:
            continue
        M = N // g
        table = tables[g] = [None] * M
        for v in range(N):
            if table[v % M] is None and gcd(v, g) == 1:
                table[v % M] = len(reps)
                reps.append((g, v))
    if len(reps) != psi(N):
        raise IntegrityError(f"P1(Z/{N}) has {len(reps)} points, expected psi = {psi(N)}")
    return tuple(reps), tables


class ModSymSpace:
    """Built sign +1 modular-symbols data for one level.

    `reps` holds the P^1 points, `points` one (sign, column) per point,
    `rows` one expression {free generator: coefficient} per column, `free`
    the free generators, `paths` the endpoints (start, end) of each free
    generator's path, aligned with `free`, and `cusps` one representative
    per eta-orbit of cusp classes.  Immutable once constructed, apart from
    the cache of traces."""

    def __init__(self, N: int):
        self.N = _need_level(N)
        self.genus = genus_x0(N)
        self._build()
        self._trace_cache: dict[int, int] = {}
        self._trace_lock = threading.Lock()

    # -- construction -------------------------------------------------

    def _build(self):
        N = self.N
        reps, tables = self.reps, self._p1_tables = _p1_points(N)
        n = len(reps)
        look = self.p1_index

        def eta(i):  # position of (-c : d) = (g : -v), read from g's table
            g, v = reps[i]
            return tables[g][-v % (N // g)] if g else 0

        # sigma: (c,d) -> (d,-c) and eta commute; an orbit {x, x.sigma, x.eta,
        # x.sigma.eta} is one column with signs +1, -1, +1, -1, or 0 where it
        # forces x = -x.  `swap` is eta.sigma: (c : d) -> (d : c).
        points: list = [None] * n
        swap = [0] * n
        for i, (c, d) in enumerate(reps):
            if points[i] is None:
                j = look(d, -c)
                k, m = eta(i), eta(j)
                s = 0 if i in (j, m) else 1
                points[i] = points[k] = (s, i)
                points[j] = points[m] = (-s, i)
                swap[i], swap[m], swap[j], swap[k] = m, i, k, j
        self.points = tuple(points)
        # three-term relation rows over the columns, tau: (c,d) -> (d, -c-d).
        # The row of x.swap is minus the row of x (x.swap.tau = x.tau^2.swap
        # and x.swap.tau^2 = x.tau.swap), so it is skipped.
        relations = []
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            c, d = reps[i]
            j = look(d, -c - d)
            k = look(-c - d, c)
            row: dict[int, int] = {}
            for m in (i, j, k):
                seen[m] = seen[swap[m]] = True
                s, col = points[m]
                if s:
                    row[col] = row.get(col, 0) + s
            row = {c2: v for c2, v in row.items() if v}
            if row:
                relations.append(row)
        pivots = _int_rref(relations)

        kept = sorted({col for s, col in points if s})
        free = [c for c in kept if c not in pivots]
        self.free = tuple(free)
        self.dim = len(free)
        nu_plus = cusp_count_plus(N)
        expected = self.genus + nu_plus - 1
        if self.dim != expected:
            raise IntegrityError(
                f"level {N}: sign +1 modular-symbols dimension {self.dim} != {expected}"
            )

        self.rows = {c: {c: 1} for c in free}
        for c, row in pivots.items():
            p = row[c]
            self.rows[c] = {
                k: -v if p == 1 else Fraction(-v, p) for k, v in row.items() if k != c
            }
        self.paths = tuple(self._manin_path(c) for c in free)

        # one representative per eta-orbit of cusp classes, from the free
        # generators' endpoints; the boundary map is onto, so every orbit
        # shows up (oo is seeded for N = 1)
        orbits = {_cusp_orbit(N, (1, 0)): (1, 0)}
        for path in self.paths:
            for cusp in path:
                orbits.setdefault(_cusp_orbit(N, cusp), cusp)
        cusps = self.cusps = tuple(orbits.values())
        if len(cusps) != nu_plus:
            raise IntegrityError(
                f"level {N}: found {len(cusps)} cusp orbits, expected {nu_plus}"
            )

    # -- symbol plumbing ----------------------------------------------

    def p1_index(self, c: int, d: int) -> int:
        """Position in `reps` of the point (c : d).

        With g = gcd(c, N) < N and M = N/g, the point is (g : r) for
        r = (c/g)^-1 * d mod M, and `_p1_tables[g][r]` holds its position.
        """
        N = self.N
        g = gcd(c, N)
        if gcd(g, d) != 1:
            raise ValueError(f"({c}:{d}) is not a point of P1(Z/{N})")
        if g == N:
            return 0
        M = N // g
        return self._p1_tables[g][pow(c // g, -1, M) * d % M]

    def _manin_path(self, i: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Endpoints {b/d, a/c} of the modular symbol of generator i."""
        a, b, c, d = _sl2_lift(*self.reps[i])
        return _cusp_normalize(b, d), _cusp_normalize(a, c)

    # -- Atkin-Lehner action ------------------------------------------

    def al_matrix(self, Q: int) -> tuple[int, int, int, int]:
        """Determinant-Q witness of shape (Q*a, b; N*c, Q*d), smallest |b| then |c|."""
        N = self.N
        if not _is_hall_divisor(Q, N):
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

    def al_trace_cuspidal(self, Q: int) -> int:
        """Trace of w_Q on the cuspidal subspace S2 (exact integer).

        The diagonal of w_Q on the free generators gives the trace on M2+;
        the boundary part contributes #(cusp orbits fixed by w_Q) - 1.  The
        image of generator c is {oo, end} - {oo, start} for the images start,
        end of its endpoints.  Where the two convergent chains begin with the
        same entries, the same Manin symbols enter with coefficients -1 and +1
        and cancel, so only the entries after the common prefix are looked
        up.  The trace tr+ on S2+ is an integer of the parity of the genus
        and at most the genus in size, and tr(w_Q | S2) = 2 * tr+ (the
        halves S2+ and S2- are isomorphic as w_Q-modules; see the module
        docstring).
        """
        if Q == 1:
            return 2 * self.genus
        with self._trace_lock:
            if Q in self._trace_cache:
                return self._trace_cache[Q]
        mat = self.al_matrix(Q)
        look, points, rows = self.p1_index, self.points, self.rows
        diag = 0
        for c, (start, end) in zip(self.free, self.paths):
            from_start = _convergent_chain(*self._moebius(mat, start))
            from_end = _convergent_chain(*self._moebius(mat, end))
            k = 0
            for x, y in zip(from_start, from_end):
                if x != y:
                    break
                k += 1
            for cd in from_start[k:]:
                s, col = points[look(*cd)]
                if s:
                    diag -= s * rows[col].get(c, 0)
            for cd in from_end[k:]:
                s, col = points[look(*cd)]
                if s:
                    diag += s * rows[col].get(c, 0)
        N, g = self.N, self.genus
        fixed = sum(
            _cusp_orbit(N, self._moebius(mat, cusp)) == _cusp_orbit(N, cusp)
            for cusp in self.cusps
        )
        tr = diag - (fixed - 1)
        if tr.denominator != 1 or (tr - g) % 2 or abs(tr) > g:
            raise IntegrityError(
                f"trace {tr} of w_{Q} on S2+ at level {N} is not an integer of "
                f"the parity of genus = {g} and of size at most it"
            )
        tr = 2 * int(tr)
        with self._trace_lock:
            self._trace_cache.setdefault(Q, tr)
        return tr


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


def invariant_genus(N: int, W=()) -> int:
    """Genus of X0(N)/W for an Atkin-Lehner subgroup W: the reference route.

    Computed as half the dimension of the simultaneous +1-eigenspace of W on
    the cuspidal subspace; the dimension itself comes from the averaged trace
    over the (abelian, exponent-2) subgroup, which is the same number.  Not
    memoised: the package's genera are `involutions.quotient_genus_hurwitz`.
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
