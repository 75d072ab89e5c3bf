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
length M per divisor g < N, read at r, and the eta-image (g : -v) of a
stored point is slot -v mod M of the same table.  With h = gcd(g, M), a
residue r mod M holds a point exactly when gcd(r, h) = 1: a prime of h that
divides r divides every v = r + kM, and for r prime to h some k < g makes v
prime to the primes of g outside M as well.  So g's table has
(M/h) * phi(h) slots, and the walk over v stops at the last of them.  One
lookup list, indexed by c mod N, holds (g's table, M, (c/g)^-1 mod M) for
each c, so a lookup is a list read, a product mod M and a table read, with
no gcd and no inverse.  The build reads the sigma and tau neighbours of each
point that way, as the trace reads its symbols.

The relations x + x.sigma = 0 and x = x.eta are eliminated by orbits:
sigma: (c, d) -> (d, -c) and eta commute, so each point's orbit is
{x, x.sigma, x.eta, x.sigma.eta}, one column whose symbol the four points
are +1, -1, +1, -1 times, or 0 times where the orbit forces x = -x
(x = x.sigma or x = x.sigma.eta).  The three-term relation
x + x.tau + x.tau^2 = 0 is eliminated over those columns by sparse integer
Gaussian elimination; the rows of x and of x.eta.sigma agree up to sign, so
only one of each pair is built.  The elimination runs forward over the
relations in the order of their first P^1 point, then one back-substitution
from the highest pivot down, in which each row is cleared with rows that are
already final.  A reduced row p*col + rest = 0 says the column's symbol is
-rest/p, so the space stores the rows the elimination returns, each with its
pivot entry popped: `rows[col]` is rest, with int coefficients where p = 1
and rest/p in Fractions otherwise, and a free column's row is {col: -1}.
Each point's (sign, column) in `points` holds the orbit's sign negated, so
a point's expression is still its sign times its column's row, and is never
stored.

The builder asserts dim M2+ = genus + nu+ - 1, where nu+ counts the cusp
classes up to eta (`x0invariants.cusp_count_plus`), stores each free
generator's SL2(Z) lift g = [[a, b], [c, d]], whose path is
g{0, oo} = {b/d, a/c}, and keeps one representative per eta-orbit of cusp
classes, taken from those endpoints.  A reduced cusp p/q with d = gcd(q, N)
lies in the class keyed (d, u) with u = p*(q/d) mod gcd(d, N/d); this is
Cremona's equivalence criterion (Prop. 2.2.3) as a key.  eta sends u to -u,
so the orbit is keyed (d, min(u, -u mod gcd(d, N/d))), and neither the build
nor the fixed-cusp count of a trace compares cusps pairwise.

Atkin-Lehner operators act through a determinant-Q witness matrix W.  The
image of a free generator is M{0, oo} for the integer matrix M = W*g.  Its
Hermite form M = gamma * [[a, b], [0, e]], with gamma in SL2(Z), a*e = Q and
0 <= b < e, takes a gcd of M's first column and one modular inverse for its
Bezout pair, and then M{0, oo} = gamma{b/e, oo} is minus the sum of the
Manin symbols of gamma times the convergent matrices of b/e (Cremona,
2.4): one chain with denominators at most Q, where mapping the path's two
endpoints would expand two longer chains that share their start.  The
trace splits each free generator's image once and walks its chain inline,
with no list of symbols.
The boundary map sends M2+ onto the degree-zero divisors on the eta-orbits of
cusps and commutes with w_Q (Stein, ch. 8), so on the cuspidal subspace S2+

    tr(w_Q | S2+) = tr(w_Q | M2+) - (#cusp orbits fixed by w_Q - 1),

and a trace needs only the diagonal of w_Q on the free generators.  w_Q
sends a cusp of level d = gcd(q, N) to one of level d*Q/gcd(d, Q)^2, so
only the orbits at levels with gcd(d, Q)^2 = Q are compared with their
images, and for a Q that is not a square none are.  The package reads only
these traces, through `involutions.fix_al`, and takes every quotient genus
from them by a Hurwitz count.  `invariant_genus` is the averaged trace:
the genus of X0(N)/W is dim S2^W / 2, the sum of tr(w_Q | S2) over Q in W
divided by 2|W|.  With fix(w_Q) = 2 - tr(w_Q | S2) that is the Hurwitz
count rearranged, so it is no independent check of that count; the
benchmark's genus-large workload measures this sum because it calls it.
The independent route is the +1-eigenspace intersection of the generators,
`tests/oracles.invariant_genus_eigenspace`.

Only this route lives here.  The independent reference routes (all of M2
with its sigma-only pairing, the cuspidal subspace as the kernel of the
boundary map, full operator matrices and the genus from +1-eigenspaces) are
the test suite's oracles, in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import IntegrityError
from .ntheory import (
    _MEMO_TABLES, ALSubgroup, _is_hall_divisor, _need_level, egcd, euler_phi, psi,
)
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


def _hermite_split(A: int, B: int, C: int, D: int):
    """Split M = [[A, B], [C, D]] with det M > 0 as gamma * [[a, b], [0, e]].

    gamma is in SL2(Z), a = gcd(A, C) > 0, a*e = det M and 0 <= b < e
    (Cremona, Algorithms for Modular Elliptic Curves, 2.4).  The Bezout pair
    x*A + y*C = a takes a gcd and one modular inverse: with p = A/a and
    q = C/a, x = p^-1 mod |q| and y = (1 - x*p)/q, or x, y = p, 0 when C = 0
    (and x = 0, y = q when |q| = 1).  That form is unique, so the split is
    the same for any Bezout pair.  Returns (gamma, a, b, e), gamma as a
    4-tuple by rows.
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


def _reduce_int_row(row: dict, lead: int) -> dict:
    """`row`, nonzero with no zero entries and lowest column `lead`, divided
    by the gcd of its entries and given a positive entry at `lead`.  A row
    that is already primitive with a positive lead is returned as it is."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


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
                pivots[lead] = _reduce_int_row(row, lead)
                break
            _eliminate(row, piv, lead)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for j in [j for j in row if j != col and j in pivots]:
            _eliminate(row, pivots[j], j)
        if row[col] != 1:
            pivots[col] = _reduce_int_row(row, col)
    return pivots


def _p1_walk(N: int, g: int, slots: int, reps: list) -> list:
    """Divisor g's residue table, filled by the points (g : v) in increasing v.

    The first v of each residue r = v mod N/g that is prime to g is its
    class's minimum: it is appended to `reps` and `table[r]` holds its
    position.  The walk stops once `slots` residues hold a point.
    """
    M = N // g
    table = [None] * M
    for v in range(N):
        r = v % M
        if table[r] is None and gcd(v, g) == 1:
            table[r] = len(reps)
            reps.append((g, v))
            slots -= 1
            if not slots:
                break
    return table


def _p1_points(N: int) -> tuple[tuple, dict, list]:
    """The points of P^1(Z/N) in order, one residue table per divisor g of N
    and the lookup list.

    Divisor g < N, with M = N/g and h = gcd(g, M), has (M/h) * phi(h) points
    (g : v), one per residue mod M prime to h, and its walk stops at the last
    of them; `tables[N] = [0]` holds the point (0 : 1).  Entry c of the
    lookup list is (tables[g], M, inv) with g = gcd(c, N), M = N/g and
    inv = (c/g)^-1 mod M, so the point (c : d) is `table[inv * d % M]`: a
    lookup reads g's table from its entry, with no subscript by g.
    """
    reps = [(0, 1)]
    tables = {N: [0]}
    for g in range(1, N):
        if N % g:
            continue
        M = N // g
        h = gcd(g, M)
        slots = M // h * euler_phi(h)
        start = len(reps)
        tables[g] = _p1_walk(N, g, slots, reps)
        if len(reps) - start != slots:
            raise IntegrityError(
                f"P1(Z/{N}): divisor {g} filled {len(reps) - start} of its {slots} residues"
            )
    if len(reps) != psi(N):
        raise IntegrityError(f"P1(Z/{N}) has {len(reps)} points, expected psi = {psi(N)}")
    lookup = [(tables[N], 1, 0)] * N
    for c in range(1, N):
        g = gcd(c, N)
        M = N // g
        lookup[c] = (tables[g], M, pow(c // g, -1, M))
    return tuple(reps), tables, lookup


class ModSymSpace:
    """Built sign +1 modular-symbols data for one level.

    `reps` holds the P^1 points, `points` one (sign, column) per point,
    `rows` one {free generator: coefficient} row per column, so that sign
    times the column's row is the point's expression, `free`
    the free generators, `lifts` each free generator's SL2(Z) lift
    (a, b, c, d) by rows, aligned with `free`, and `cusps` one representative
    per eta-orbit of cusp classes.  Immutable once constructed, apart from
    the cache of traces."""

    def __init__(self, N: int):
        self.N = _need_level(N)
        self.genus = genus_x0(N)
        self._build()
        self._trace_cache: dict[int, int] = {}

    # -- construction -------------------------------------------------

    def _build(self):
        N = self.N
        self.reps, self._p1_tables, self._p1_lookup = _p1_points(N)
        reps, tables, lookup = self.reps, self._p1_tables, self._p1_lookup
        n = len(reps)

        def eta(i):  # position of (-c : d) = (g : -v), read from g's table
            g, v = reps[i]
            return tables[g][-v % (N // g)] if g else 0

        # sigma: (c,d) -> (d,-c) and eta commute; an orbit {x, x.sigma, x.eta,
        # x.sigma.eta} is one column, x being +1, -1, +1, -1 times its symbol,
        # or 0 times where the orbit forces x = -x.  `points` keeps these
        # signs negated, to match the stored rows (see the module docstring),
        # so the relations below subtract them.  `swap` is eta.sigma:
        # (c : d) -> (d : c).  Neighbours are read from the lookup list as in
        # `p1_index`, without its point check: sigma and tau send points to
        # points.
        points: list = [None] * n
        swap = [0] * n
        for i, (c, d) in enumerate(reps):
            if points[i] is None:
                table, M, inv = lookup[d % N]
                j = table[-inv * c % M]
                k, m = eta(i), eta(j)
                s = 0 if i in (j, m) else -1
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
            table, M, inv = lookup[d % N]
            j = table[-inv * (c + d) % M]
            table, M, inv = lookup[-(c + d) % N]
            k = table[inv * c % M]
            row: dict[int, int] = {}
            for m in (i, j, k):
                seen[m] = seen[swap[m]] = True
                s, col = points[m]
                if s:
                    row[col] = row.get(col, 0) - s
            relations.append(row)  # _int_rref drops zero entries and empty rows
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

        rows = self.rows = pivots
        for c, row in rows.items():
            p = row.pop(c)
            if p != 1:
                rows[c] = {k: Fraction(v, p) for k, v in row.items()}
        for c in free:
            rows[c] = {c: -1}
        self.lifts = tuple(_sl2_lift(*reps[c]) for c in free)

        # one representative per eta-orbit of cusp classes, from the endpoints
        # b/d and a/c of the free generators' paths {b/d, a/c}; the boundary
        # map is onto, so every orbit shows up (oo is seeded for N = 1)
        orbits = {_cusp_orbit(N, (1, 0)): (1, 0)}
        for a, b, c, d in self.lifts:
            for cusp in (_cusp_normalize(b, d), _cusp_normalize(a, c)):
                orbits.setdefault(_cusp_orbit(N, cusp), cusp)
        cusps = self.cusps = tuple(orbits.values())
        if len(cusps) != nu_plus:
            raise IntegrityError(
                f"level {N}: found {len(cusps)} cusp orbits, expected {nu_plus}"
            )

    # -- symbol plumbing ----------------------------------------------

    def p1_index(self, c: int, d: int) -> int:
        """Position in `reps` of the point (c : d).

        Entry c mod N of the lookup list is (table, M, inv) with
        g = gcd(c, N) = N/M, `table = _p1_tables[g]` and inv = (c/g)^-1 mod M;
        the point is (g : r) for r = inv * d mod M, and `table[r]` holds its
        position.  A pair with gcd(g, d) != 1 is not a point and raises
        ValueError.  The build and the trace read the lookup list inline, so
        this checked lookup serves the tests and callers outside the module.
        """
        N = self.N
        table, M, inv = self._p1_lookup[c % N]
        if gcd(N // M, d) != 1:
            raise ValueError(f"({c}:{d}) is not a point of P1(Z/{N})")
        return table[inv * d % M]

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
        image of generator f with lift g is M{0, oo} for the determinant-Q
        matrix M = W*g, and the Hermite form M = gamma * [[a, b], [0, e]]
        (`_hermite_split`) turns it into one convergent chain of b/e with
        e <= Q (Cremona, Algorithms for Modular Elliptic Curves, 2.4):

            M{0, oo} = gamma{b/e, oo} = -sum_k gamma*g_k{0, oo},

        where g_k = [[p_k, s*p_(k-1)], [q_k, s*q_(k-1)]], s = (-1)^(k-1),
        runs over the convergent matrices of b/e from p_(-1)/q_(-1) = 1/0.
        The symbol of gamma*g_k is its bottom row (u_k : s*u_(k-1)) with
        u_k = gamma21*p_k + gamma22*q_k, which obeys the convergents'
        recursion from u_(-2) = gamma22 and u_(-1) = gamma21; when e = 1 the
        one symbol is (gamma22 : -gamma21), minus the symbol of gamma.  The
        chain runs inline, with no list of symbols, and each symbol's point
        is read from the residue table its lookup entry holds, with no gcd or
        inverse.  The trace tr+ on S2+ is an integer of the parity of the
        genus and at most the genus in size, and tr(w_Q | S2) = 2 * tr+ (the
        halves S2+ and S2- are isomorphic as w_Q-modules; see the module
        docstring).

        w_Q sends a cusp p/q of level d = gcd(q, N) to one of level
        d*Q/gcd(d, Q)^2, so it can fix a cusp orbit only where
        gcd(d, Q)^2 = Q.  The fixed orbits are sought among those cusps
        alone, and a Q that is not a square fixes none.
        """
        if Q == 1:
            return 2 * self.genus
        try:
            return self._trace_cache[Q]
        except KeyError:
            pass
        mat = self.al_matrix(Q)
        wa, wb, wc, wd = mat
        N, lookup = self.N, self._p1_lookup
        points, rows = self.points, self.rows
        diag = 0
        for f, (a, b, c, d) in zip(self.free, self.lifts):
            (_, _, um1, um2), _, p, q = _hermite_split(
                wa * a + wb * c, wa * b + wb * d, wc * a + wd * c, wc * b + wd * d
            )
            sign = -1  # the chain of p/q = b/e; sign = (-1)^(k-1) at k = 0
            while q:
                k = p // q
                p, q = q, p - k * q
                uk = k * um1 + um2
                # p1_index(uk, sign * um1), inlined; it is a bottom row of SL2(Z)
                table, m, inv = lookup[uk % N]
                s, col = points[table[inv * sign * um1 % m]]
                if s:
                    diag -= s * rows[col].get(f, 0)
                um2, um1, sign = um1, uk, -sign
        g = self.genus
        # only cusps p/q with gcd(q, N, Q)^2 = Q can be fixed, so none unless
        # Q is a square (gcd(q, Q) = gcd(q, N, Q), as Q divides N)
        r = isqrt(Q)
        fixed = 0
        if r * r == Q:
            fixed = sum(
                _cusp_orbit(N, self._moebius(mat, cusp)) == _cusp_orbit(N, cusp)
                for cusp in self.cusps
                if gcd(cusp[1], Q) == r
            )
        tr = diag - (fixed - 1)
        if tr.denominator != 1 or (tr - g) % 2 or abs(tr) > g:
            raise IntegrityError(
                f"trace {tr} of w_{Q} on S2+ at level {N} is not an integer of "
                f"the parity of genus = {g} and of size at most it"
            )
        return self._trace_cache.setdefault(Q, 2 * int(tr))


_CACHE: dict[int, ModSymSpace] = {}


def build_space(N: int) -> ModSymSpace:
    """Build (or fetch the cached) space for one level.  Concurrent first
    calls may each build, and all of them return the first space stored."""
    space = _CACHE.get(N)
    if space is None:
        space = _CACHE.setdefault(N, ModSymSpace(N))
    return space


def clear_cache() -> None:
    """Empty the space cache and every per-level memo table (`ntheory.memoise`)."""
    _CACHE.clear()
    for table in _MEMO_TABLES.values():
        table.clear()


def invariant_genus(N: int, W=()) -> int:
    """Genus of X0(N)/W for an Atkin-Lehner subgroup W by the averaged trace.

    Half of dim S2^W = (1/|W|) * sum of tr(w_Q | S2) over Q in W.  With
    fix(w_Q) = 2 - tr(w_Q | S2) this is the Hurwitz count of
    `involutions.quotient_genus_hurwitz` rearranged, from the same traces,
    so it does not check that count independently; the +1-eigenspace route
    in tests/oracles.py does.  Not memoised; the benchmark's genus-large
    workload calls it.
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
