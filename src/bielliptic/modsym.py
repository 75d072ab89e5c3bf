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
(M/h) * phi(h) slots, and the walk over v stops at the last of them.  The
points themselves are two parallel int lists, `rep_g` and `rep_v`, with g = 0
for (0 : 1).  Three lookup lists, indexed by c mod N, hold g's table, M and
(c/g)^-1 mod M for each c, so a lookup is three list reads, a product mod M
and a table read, with no gcd and no inverse; entry g of a divisor g < N is
g's own table with M = N/g, and entry 0 is the table of (0 : 1), so the
eta-image of (g : v) is read at entry g; the inverses come from one list
per modulus M (`_unit_inverses`).  The build reads the sigma and tau
neighbours of each point that way, as the trace reads its symbols, and no
per-point tuple is kept.

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
pivot entry popped and all of them over one common denominator `den`, the
lcm of the pivots: `rows[col]` is rest * (den/p), in ints, and a free
column's row is {col: -den}.  `den` is 1 wherever every pivot is 1, which
is every level the package has met.  Each point keeps, in two parallel
lists, the orbit's sign negated (`sign`) and a reference to its column's
row (`row_of`, None where the sign is 0), so a point's expression is
sign * row / den, is never stored, and is read with no lookup by column.

The builder asserts dim M2+ = genus + nu+ - 1, where nu+ counts the cusp
classes up to eta (`x0invariants.cusp_count_plus`), stores each free
generator's SL2(Z) lift g = [[a, b], [c, d]], whose path is
g{0, oo} = {b/d, a/c}, and keeps one representative per eta-orbit of cusp
classes, taken from those endpoints.  A reduced cusp p/q with d = gcd(q, N)
lies in the class keyed (d, u) with u = p*(q/d) mod m, m = gcd(d, N/d);
this is Cremona's equivalence criterion (Prop. 2.2.3) as a key.  eta sends
u to -u, so the orbit is keyed (d, min(u, -u mod m)), and neither the build
nor the fixed-cusp count of a trace compares cusps pairwise.  A lift's
endpoints are reduced with q >= 0 and keyed as they are: only oo comes
unnormalized, as +-1/0, and its key is seeded with 1/0.

Atkin-Lehner operators act through a determinant-Q witness matrix W.  The
image of a free generator is M{0, oo} for the integer matrix M = W*g.  Its
Hermite form M = gamma * [[a, b], [0, e]], with gamma in SL2(Z), a*e = Q and
0 <= b < e, gives M{0, oo} = gamma{b/e, oo}, minus the sum of the Manin
symbols of gamma times the convergent matrices of b/e (Cremona, 2.4): one
chain with denominators at most Q, where mapping the path's two endpoints
would expand two longer chains that share their start.  The trace splits
each image inline, by one gcd of M's first column and one modular inverse,
and walks the chain with no list of symbols and no alternating sign: on M2+
the points (c : d) and (c : -d) are eta-images, with one sign and one row.
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

from math import gcd, isqrt, lcm

from .errors import IntegrityError
from .ntheory import (
    _MEMO_TABLES, ALSubgroup, _is_hall_divisor, _need_level, egcd, euler_phi, factor,
    memoise, psi,
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


def _cusp_class(N: int, cusp: tuple[int, int]) -> tuple[int, int, int]:
    """Key (d, u) of the Gamma0(N)-class of a reduced cusp p/q, and u's modulus m.

    d = gcd(q, N), m = gcd(d, N/d) and u = p*(q/d) mod m: Cremona's pairwise
    criterion (Algorithms for Modular Elliptic Curves, Prop. 2.2.3) as a
    key, so equal keys are exactly equivalent cusps; m depends on d alone.
    The key of -p/-q is the same.
    """
    p, q = cusp
    d = gcd(q, N)
    m = gcd(d, N // d)
    return d, p * (q // d) % m, m


def _cusp_orbit(N: int, cusp: tuple[int, int]) -> tuple[int, int]:
    """Key of the eta-orbit of a cusp class: eta sends p/q to -p/q, so the
    class key (d, u) to (d, -u), and the orbit is keyed by the smaller u."""
    d, u, m = _cusp_class(N, cusp)
    return d, min(u, -u % m)


def _sl2_lift(c: int, d: int) -> tuple[int, int, int, int]:
    """Complete a coprime bottom row (c, d) to [[a, b], [c, d]] in SL2(Z)."""
    g, x, y = egcd(c, d)
    if g != 1:
        raise IntegrityError(f"bottom row ({c},{d}) not coprime")
    return y, -x, c, d


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
    columns only.  Zero entries and empty rows are dropped, and the input is
    not changed: a row is copied, and filtered only if it holds a zero.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v} if 0 in row.values() else dict(row)
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


def _p1_walk(N: int, g: int, slots: int, rep_g: list, rep_v: list) -> list:
    """Divisor g's residue table, filled by the points (g : v) in increasing v.

    The first v of each residue r = v mod N/g that is prime to g is its
    class's minimum: it is appended to `rep_g` and `rep_v`, and `table[r]`
    holds its position.  The walk stops once `slots` residues hold a point.
    """
    M = N // g
    table = [None] * M
    for v in range(N):
        r = v % M
        if table[r] is None and gcd(v, g) == 1:
            table[r] = len(rep_g)
            rep_g.append(g)
            rep_v.append(v)
            slots -= 1
            if not slots:
                break
    return table


@memoise
def _unit_inverses(M: int) -> list:
    """Entry k is k^-1 mod M for a unit k of Z/M, else 0; the units are what
    a sieve by M's primes leaves.  Shared by every level with N/g = M."""
    unit = bytearray([1]) * M
    for p, _ in factor(M).factors:
        unit[::p] = bytes(len(range(0, M, p)))
    return [pow(k, -1, M) if u else 0 for k, u in enumerate(unit)]


def _p1_points(N: int) -> tuple[list, list, list, list, list]:
    """The points of P^1(Z/N) in order, as a g list and a v list, and the
    three lookup lists indexed by c mod N.

    Divisor g < N, with M = N/g and h = gcd(g, M), has (M/h) * phi(h) points
    (g : v), one per residue mod M prime to h, and its walk stops at the last
    of them; the point (0 : 1) comes first, as g = 0 and v = 1, with the
    table [0]; the N points (1 : v) and their table are ranges.  Entry c of
    the lookup lists is g's table, M and inv = (c/g)^-1 mod M with
    g = gcd(c, N) and M = N/g, so the point (c : d) is `table[inv * d % M]`.
    Divisor g writes the slices [g::g], with k^-1 mod M at c = g*k from
    `_unit_inverses(M)`, in ascending order, so its own divisor is the last
    to write an entry.
    """
    rep_g, rep_v = [0], [1]
    table_of, mod_of, inv_of = [[0]] * N, [1] * N, [0] * N
    for g in range(1, N):
        if N % g:
            continue
        M = N // g
        if g == 1:
            table = list(range(1, N + 1))
            rep_g += [1] * N
            rep_v += range(N)
        else:
            h = gcd(g, M)
            slots = M // h * euler_phi(h)
            start = len(rep_g)
            table = _p1_walk(N, g, slots, rep_g, rep_v)
            if len(rep_g) - start != slots:
                raise IntegrityError(
                    f"P1(Z/{N}): divisor {g} filled {len(rep_g) - start} of its {slots} residues"
                )
        table_of[g::g] = [table] * (M - 1)
        mod_of[g::g] = [M] * (M - 1)
        inv_of[g::g] = _unit_inverses(M)[1:]
    if len(rep_g) != psi(N):
        raise IntegrityError(f"P1(Z/{N}) has {len(rep_g)} points, expected psi = {psi(N)}")
    return rep_g, rep_v, table_of, mod_of, inv_of


class ModSymSpace:
    """Built sign +1 modular-symbols data for one level.

    `rep_g` and `rep_v` hold the P^1 points (g : v); per point, `sign` and
    `row_of` hold the orbit's sign negated and its column's row in `rows`,
    one {free generator: coefficient} row per column over the common
    denominator `den`, so that sign * row / den is the point's expression.
    `free` holds the free generators, `lifts` each free generator's SL2(Z)
    lift (a, b, c, d) by rows, aligned with `free`, and `cusps` one
    representative per eta-orbit of cusp classes.  Immutable once
    constructed, apart from the cache of traces."""

    def __init__(self, N: int):
        self.N = _need_level(N)
        self.genus = genus_x0(N)
        self._build()
        self._trace_cache: dict[int, int] = {}

    # -- construction -------------------------------------------------

    def _build(self):
        N = self.N
        rep_g, rep_v, table_of, mod_of, inv_of = _p1_points(N)
        self.rep_g, self.rep_v = rep_g, rep_v
        self._p1_table, self._p1_mod, self._p1_inv = table_of, mod_of, inv_of
        n = len(rep_g)

        # sigma: (c,d) -> (d,-c) and eta commute; an orbit {x, x.sigma, x.eta,
        # x.sigma.eta} is one column, x being +1, -1, +1, -1 times its symbol,
        # or 0 times where the orbit forces x = -x.  `sign` keeps these signs
        # negated, to match the stored rows (see the module docstring), so the
        # relations below subtract them.  `swap` is eta.sigma:
        # (c : d) -> (d : c).  Neighbours are read from the lookup lists as in
        # `p1_index`, without its point check: sigma and tau send points to
        # points.  The eta-image (g : -v) of (g : v) is read at entry g.
        sign: list = [None] * n
        col = [0] * n
        swap = [0] * n
        kept = []
        for i in range(n):
            if sign[i] is None:
                c, d = rep_g[i], rep_v[i]
                x = d % N
                j = table_of[x][-inv_of[x] * c % mod_of[x]]
                k = table_of[c][-d % mod_of[c]]
                x = rep_g[j]
                m = table_of[x][-rep_v[j] % mod_of[x]]
                s = 0 if i in (j, m) else -1
                if s:
                    kept.append(i)
                sign[i] = sign[k] = s
                sign[j] = sign[m] = -s
                col[i] = col[j] = col[k] = col[m] = i
                swap[i], swap[m], swap[j], swap[k] = m, i, k, j
        self.sign = sign
        # three-term relation rows over the columns, tau: (c,d) -> (d, -c-d).
        # The row of x.swap is minus the row of x (x.swap.tau = x.tau^2.swap
        # and x.swap.tau^2 = x.tau.swap), so it is skipped.  Zero entries
        # and empty rows are not kept.
        relations = []
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            c, d = rep_g[i], rep_v[i]
            x = d % N
            j = table_of[x][-inv_of[x] * (c + d) % mod_of[x]]
            x = -(c + d) % N
            k = table_of[x][inv_of[x] * c % mod_of[x]]
            row: dict[int, int] = {}
            for m in (i, j, k):
                seen[m] = seen[swap[m]] = True
                s = sign[m]
                if s:
                    x = col[m]
                    row[x] = row.get(x, 0) - s
            if 0 in row.values():
                row = {x: v for x, v in row.items() if v}
            if row:
                relations.append(row)
        pivots = _int_rref(relations)

        free = [c for c in kept if c not in pivots]
        self.free = tuple(free)
        self.dim = len(free)
        nu_plus = cusp_count_plus(N)
        expected = self.genus + nu_plus - 1
        if self.dim != expected:
            raise IntegrityError(
                f"level {N}: sign +1 modular-symbols dimension {self.dim} != {expected}"
            )

        den = self.den = lcm(*(row[c] for c, row in pivots.items()))
        rows = self.rows = pivots
        for c, row in rows.items():
            p = row.pop(c)
            if p != den:
                q = den // p
                rows[c] = {k: v * q for k, v in row.items()}
        for c in free:
            rows[c] = {c: -den}
        # the sign 0 columns hold no row: no relation reads them
        self.row_of = [rows.get(x) for x in col]
        self.lifts = tuple(_sl2_lift(rep_g[c], rep_v[c]) for c in free)

        # one representative per eta-orbit of cusp classes, from the endpoints
        # b/d and a/c of the free generators' paths {b/d, a/c}; the boundary
        # map is onto, so every orbit shows up (oo is seeded for N = 1, and
        # the endpoints are keyed as they are; see the module docstring)
        orbits = {_cusp_orbit(N, (1, 0)): (1, 0)}
        for a, b, c, d in self.lifts:
            for cusp in ((b, d), (a, c)):
                orbits.setdefault(_cusp_orbit(N, cusp), cusp)
        cusps = self.cusps = tuple(orbits.values())
        if len(cusps) != nu_plus:
            raise IntegrityError(
                f"level {N}: found {len(cusps)} cusp orbits, expected {nu_plus}"
            )

    # -- symbol plumbing ----------------------------------------------

    def p1_index(self, c: int, d: int) -> int:
        """Position in `rep_g` and `rep_v` of the point (c : d).

        Entry x = c mod N of the lookup lists holds `table = _p1_table[x]`,
        M = `_p1_mod[x]` and inv = `_p1_inv[x]`, with g = gcd(c, N) = N/M and
        inv = (c/g)^-1 mod M; the point is (g : r) for r = inv * d mod M, and
        `table[r]` holds its position.  A pair with gcd(g, d) != 1 is not a
        point and raises ValueError.  The build and the trace read the lookup
        lists inline, so this checked lookup serves the tests and callers
        outside the module.
        """
        N = self.N
        x = c % N
        M = self._p1_mod[x]
        if gcd(N // M, d) != 1:
            raise ValueError(f"({c}:{d}) is not a point of P1(Z/{N})")
        return self._p1_table[x][self._p1_inv[x] * d % M]

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
        image of generator f with lift g is M{0, oo} for M = W*g =
        [[A, B], [C, D]] of determinant Q, and its Hermite form
        M = gamma * [[a, b], [0, e]] turns it into one convergent chain of
        b/e (Cremona, Algorithms for Modular Elliptic Curves, 2.4):

            M{0, oo} = gamma{b/e, oo} = -sum_k gamma*g_k{0, oo},

        where g_k = [[p_k, s*p_(k-1)], [q_k, s*q_(k-1)]], s = (-1)^(k-1),
        runs over the convergent matrices of b/e from p_(-1)/q_(-1) = 1/0.
        The symbol of gamma*g_k is its bottom row (u_k : s*u_(k-1)) with
        u_k = gamma21*p_k + gamma22*q_k, which obeys the convergents'
        recursion from u_(-2) = gamma22 and u_(-1) = gamma21; s is dropped,
        as (c : -d) is the eta-image of (c : d).  The split is inline, with
        a = gcd(A, C), e = Q/a and gamma21 = C/a: if gamma21 != 0,
        gamma22 = x + t*gamma21 for x = (A/a)^-1 mod |gamma21|, and since
        D = b*gamma21 + e*gamma22, (D - e*x)/gamma21 = t*e + b; else
        gamma22 = A/a and b = gamma22*B mod e.
        Each symbol's point is read from its lookup entry's residue table,
        its sign and row from `sign` and `row_of`, and the diagonal is summed
        in ints over `den`.  The trace tr+ on S2+ is an integer of the
        parity of the genus and at most the genus in size, and
        tr(w_Q | S2) = 2 * tr+ (S2+ and S2- are isomorphic as w_Q-modules;
        see the module docstring).

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
        N = self.N
        table_of, mod_of, inv_of = self._p1_table, self._p1_mod, self._p1_inv
        sign, row_of = self.sign, self.row_of
        diag = 0
        for f, (a, b, c, d) in zip(self.free, self.lifts):
            # the split of W*g: gamma's bottom row (um1, um2) and p/q = b/e
            A = wa * a + wb * c
            um1 = wc * a + wd * c
            h = gcd(A, um1)
            um1 //= h
            q = Q // h
            if um1:
                x = pow(A // h, -1, abs(um1))
                t, p = divmod((wc * b + wd * d - q * x) // um1, q)
                um2 = x + t * um1
            else:
                um2 = A // h
                p = um2 * (wa * b + wb * d) % q
            while q:
                k = p // q
                p, q = q, p - k * q
                uk = k * um1 + um2
                # p1_index(uk, um1), inlined; it is a bottom row of SL2(Z)
                x = uk % N
                j = table_of[x][inv_of[x] * um1 % mod_of[x]]
                s = sign[j]
                if s:
                    diag -= s * row_of[j].get(f, 0)
                um2, um1 = um1, uk
        g, den = self.genus, self.den
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
        num = diag - (fixed - 1) * den
        tr, rem = divmod(num, den)
        if rem or (tr - g) % 2 or abs(tr) > g:
            k = gcd(num, den)
            shown = f"{num // k}/{den // k}" if rem else tr
            raise IntegrityError(
                f"trace {shown} of w_{Q} on S2+ at level {N} is not an integer of "
                f"the parity of genus = {g} and of size at most it"
            )
        return self._trace_cache.setdefault(Q, 2 * tr)


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
