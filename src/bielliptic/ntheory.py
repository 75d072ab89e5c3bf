"""Integer kernel: factorization, divisor combinatorics, class numbers.

Everything here is exact and deterministic; trial division is fine because
every level this package ever sees is tiny (≤ a few thousand).

`memoise` caches the pure functions a classification asks for over and over,
in fourteen tables.  Eight hold level data: here `factor`, the subspaces of
F2^omega with their spans (`_subspaces`, per omega) and the subgroup lattice
behind `all_subgroups` that each level maps from them; `genus_x0` in
`x0invariants`; `_unit_inverses` in `modsym`; `_involution_table` in
`involutions`; `star_gate` in `screening`; and `_search` in `atlas`, the
candidate search of each (level, subgroup).  Six hold per-process inputs: the
CLI parser (`cli._parser`), and in `atlas` the four data tables (the
`default_*` pair, `hyperelliptic_pairs`, `witness_annotations`) and the pair
list (`_pairs`).  Each table holds one entry per argument tuple it was called
with.  An involution table keeps its level's involution list, the product
rows read so far and, as their one store, each element's fixed-point count
and each closed group's Hurwitz genus by bitmask (an `ALSubgroup`'s is
`hall_mask`).  A trace is stored only in its modular-symbols space.
`modsym.clear_cache()` empties the tables together with the modular-symbols
spaces; it is the package's one reset.

`Record`, `Frozen` and `replace` serve the package's records (a
`Factorization` here, and the involutions, rule results, witnesses,
curve records and pair records elsewhere) in place of `dataclasses`: each
record derives `__eq__`, `__hash__` (if frozen) and `__repr__` from the
field names in its `__match_args__`.

A `Factorization` computes `omega` and `is_squarefree` once, and an
`ALSubgroup` keeps its constants in slots (see its docstring); the lattice's
subgroups live in its memo table, so the reset drops them too.
"""

from __future__ import annotations

import functools
from math import gcd
from operator import attrgetter

from .errors import IntegrityError


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd.  Returns (g, x, y) with a*x + b*y = g and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class Record:
    """Base of the package's records.  A record names its fields in
    constructor order in `__match_args__` and keeps its own `__init__`; the
    methods `dataclasses` would generate come from that tuple, read through
    one `operator.attrgetter` per class: `__eq__` compares the fields with a
    record of the same class (another class gives NotImplemented), and
    `__repr__` writes ``Name(field=value, ...)``.  `replace` reads it too.
    A Record may be assigned to, so it is not hashable; `Frozen` adds the
    hash.  Importing `dataclasses` would also import `inspect`, `ast`, `dis`
    and `tokenize` on every start.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "__match_args__"):
            cls._fields = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """Base of the package's immutable records: a Record that hashes its
    fields.  Assigning or deleting an attribute raises AttributeError;
    `__init__` sets the fields through `object.__setattr__`, and
    `functools.cached_property` writes the instance dict directly, so both
    still work, and a cached value takes no part in equality or the hash.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record, **changes):
    """A new record of the same class with `changes` applied, as
    `dataclasses.replace`; a name that is not a field is a TypeError."""
    fields = {name: getattr(record, name) for name in record.__match_args__}
    fields.update(changes)
    return type(record)(**fields)


class Factorization(Frozen):
    """Prime factorization of a positive integer, primes strictly increasing.
    The product of the factors must be n, or IntegrityError."""

    __match_args__ = ("n", "factors")

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)
        prod = 1
        for p, e in factors:
            prod *= p**e
        if prod != n:
            raise IntegrityError(f"factorization of {n} does not multiply out")

    @functools.cached_property
    def omega(self) -> int:
        return len(self.factors)

    def valuation(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @functools.cached_property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def prime_powers(self) -> list[int]:
        """The maximal prime-power divisors, ascending by prime."""
        return [p**e for p, e in self.factors]


# Every memoise table, by the qualified name of its function.
_MEMO_TABLES: dict[str, dict] = {}


def memoise(fn):
    """Cache a pure function of hashable positional arguments in a dict.

    The wrapper stays a plain function with fn's name and module, so the
    benchmark's tracer still wraps and counts it.  A call that raises stores
    nothing; concurrent first calls may each compute, and all of them return
    the first value stored.
    """
    table: dict = {}
    _MEMO_TABLES[f"{fn.__module__}.{fn.__qualname__}"] = table

    @functools.wraps(fn)
    def memoised(*args):
        try:
            return table[args]
        except KeyError:
            pass
        return table.setdefault(args, fn(*args))

    return memoised


@memoise
def factor(n: int) -> Factorization:
    """Trial-division factorization.  Rejects n < 1."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    m = n
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def psi(n: int) -> int:
    """Dedekind psi: n * prod_{p|n} (1 + 1/p)."""
    r = n
    for p, _ in factor(n).factors:
        r = r // p * (p + 1)
    return r


def euler_phi(n: int) -> int:
    r = n
    for p, _ in factor(n).factors:
        r = r // p * (p - 1)
    return r


def _mask_divisors(n: int) -> list[int]:
    """Hall divisors of n by mask: entry m multiplies the prime powers of bits m."""
    divs = [1]
    for q in factor(n).prime_powers():
        divs += [d * q for d in divs]
    return divs


def hall_divisors(n: int) -> list[int]:
    """All d | n with gcd(d, n/d) = 1, ascending.  Count is 2^omega(n)."""
    return sorted(_mask_divisors(n))


def hall_product(d: int, e: int) -> int:
    """Group law on Hall divisors: d * e / gcd(d, e)^2."""
    g = gcd(d, e)
    return d * e // (g * g)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def validate_discriminant(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant (need D<0, D=0,1 mod 4)")


def class_number(D: int) -> int:
    """Form class number h(D) for a negative discriminant D.

    Counts reduced primitive binary quadratic forms (a,b,c), b^2-4ac = D,
    |b| <= a <= c, with b >= 0 whenever |b| = a or a = c.  Non-fundamental
    discriminants are allowed.
    """
    validate_discriminant(D)
    h = 0
    a = 1
    while 3 * a * a <= -D:
        # b runs over 0..a with b = D (mod 2)
        for b in range(abs(D) % 2, a + 1, 2):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            if b == 0 or b == a or a == c:
                h += 1
            else:
                h += 2
        a += 1
    return h


def parse_decimal(token: str, what: str) -> int:
    """The number in a token of decimal digits only, with no sign, underscore
    or space; ValueError names `what` and the token.  Every number read from
    text comes through here."""
    if not token.isdecimal():
        raise ValueError(f"{what} {token!r} is not in decimal digits")
    return int(token)


def _need_level(N: int) -> int:
    if N < 1:
        raise ValueError(f"level {N} is not positive")
    return N


def parse_level(token: str) -> int:
    """A level from text: decimal digits naming N >= 1.  A minus sign before
    the digits is read too, so that "-4" is refused as the level it names."""
    negative = token.startswith("-")
    N = parse_decimal(token[negative:], "level")
    return _need_level(-N if negative else N)


def parse_w(token: str) -> int:
    """d of an Atkin-Lehner token "w<d>", d read by `parse_decimal`;
    ValueError names a bad token."""
    if not token.startswith("w"):
        raise ValueError(f"bad Atkin-Lehner token {token!r} (expected e.g. w8)")
    return parse_decimal(token[1:], f"bad Atkin-Lehner token {token!r}: index")


def _is_hall_divisor(d, N: int) -> bool:
    """Whether d is an int with d | N and gcd(d, N/d) = 1: w_d exists at level N."""
    return type(d) is int and d >= 1 and N % d == 0 and gcd(d, N // d) == 1


class ALSubgroup:
    """Subgroup of the Atkin-Lehner group B(N), stored as its full element set.

    Elements are Hall divisors of N, and so must the generators be, as ints:
    anything else raises ValueError.  The group is elementary abelian of
    order 2^omega(N), with d*e/gcd(d,e)^2 as the product.  It is built by
    doubling: a generator g not yet in the group adds the coset g*H, so
    each generator costs one pass over the elements found so far.

    The canonical generators (`_gens`), `label()`, `sort_key()`, `is_full`
    and `hall_mask` depend only on the elements and the level, so each is
    kept in a slot from first use, and a warm classification reads them.
    """

    __slots__ = ("level", "elements", "_gens", "_label", "_sort_key", "_is_full", "_hall_mask")

    def __init__(self, level: int, generators=()):
        self.level = level
        elems = {1}
        for g in generators:
            if not _is_hall_divisor(g, level):
                raise ValueError(f"w{g} is not an Atkin-Lehner involution at level {level}")
            if g not in elems:
                elems |= {hall_product(e, g) for e in elems}
        self.elements = frozenset(elems)

    @classmethod
    def _of_masks(cls, level: int, divs, bits, basis, span) -> "ALSubgroup":
        """The lattice's subgroup of the `divs[m]`, m in `span`, unchecked;
        `bits[m]` is the `hall_mask` bit of `divs[m]`."""
        sub = object.__new__(cls)
        sub.level = level
        sub.elements = frozenset([divs[m] for m in span])
        sub._gens = tuple([(m, divs[m]) for m in basis])
        sub._hall_mask = sum([bits[m] for m in span])
        return sub

    @classmethod
    def of(cls, level: int, W) -> "ALSubgroup":
        """W itself when it is a subgroup at this level, else the group its
        generators span; ValueError when W belongs to another level."""
        if isinstance(W, ALSubgroup):
            if W.level != level:
                raise ValueError(
                    f"subgroup {W.label()} of level {W.level} used at level {level}"
                )
            return W
        return cls(level, W)

    @classmethod
    def full(cls, level: int) -> "ALSubgroup":
        return cls(level, factor(level).prime_powers())

    @classmethod
    def trivial(cls, level: int) -> "ALSubgroup":
        return cls(level, ())

    @classmethod
    def parse(cls, level: int, text: str) -> "ALSubgroup":
        """The subgroup generated by text like "w8,w3"; ValueError names a bad
        token or a level below 1."""
        _need_level(level)
        return cls(level, [parse_w(tok.strip()) for tok in text.split(",")])

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, d: int) -> bool:
        return d in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))

    def __eq__(self, other):
        return (
            isinstance(other, ALSubgroup)
            and self.level == other.level
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.level, self.elements))

    def __repr__(self):
        return f"ALSubgroup({self.level}, {self.generators()})"

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        try:
            return self._is_full
        except AttributeError:
            pass
        self._is_full = self.order == 1 << factor(self.level).omega
        return self._is_full

    @property
    def hall_mask(self) -> int:
        """Bit i is set when `hall_divisors(N)[i]` is in W: W's mask on the involution table."""
        try:
            return self._hall_mask
        except AttributeError:
            pass
        self._hall_mask = sum(1 << i for i, d in enumerate(hall_divisors(self.level))
                              if d in self.elements)
        return self._hall_mask

    @property
    def is_fricke(self) -> bool:
        return self.elements == frozenset({1, self.level}) and self.level > 1

    def _masked_generators(self) -> tuple[tuple[int, int], ...]:
        """Canonical generators as (mask, d): greedily take elements of
        smallest mask, bit i of a mask marking the i-th prime power of N.
        Computed on first use and kept in the instance."""
        try:
            return self._gens
        except AttributeError:
            pass
        pp = factor(self.level).prime_powers()
        by_mask = sorted(
            (sum(1 << i for i, q in enumerate(pp) if d % q == 0), d)
            for d in self.elements if d != 1
        )
        gens: list[tuple[int, int]] = []
        span = {0}
        for m, d in by_mask:
            if m in span:
                continue
            gens.append((m, d))
            span |= {s ^ m for s in span}
            if len(span) == self.order:
                break
        self._gens = tuple(gens)
        return self._gens

    def generators(self) -> tuple[int, ...]:
        """Canonical generators, in the order `label` prints them."""
        return tuple(d for _, d in self._masked_generators())

    def label(self) -> str:
        try:
            return self._label
        except AttributeError:
            pass
        gens = self.generators()
        self._label = "<" + ",".join(f"w{d}" for d in gens) + ">" if gens else "1"
        return self._label

    def sort_key(self):
        try:
            return self._sort_key
        except AttributeError:
            pass
        masks = sorted(m for m, _ in self._masked_generators())
        self._sort_key = (
            self.order, tuple(sorted(bin(m).count("1") for m in masks)), tuple(masks)
        )
        return self._sort_key


def all_subgroups(level: int) -> list[ALSubgroup]:
    """Every subgroup of B(N), sorted canonically (reference-table row order).

    A fresh list on every call, so a caller may reorder it.
    """
    return list(_subgroup_lattice(level))


@memoise
def _subspaces(omega: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every subspace of F2^omega as (canonical basis, span), in `sort_key` order.

    The canonical basis of `ALSubgroup._masked_generators` takes, for each
    top bit that occurs, the least mask with that top bit; that is the
    reduced echelon basis with top bits as pivots.  Each vector is its pivot
    plus any set of the non-pivot bits below it, so the bases are grown bit
    by bit, each subspace exactly once, ascending within a basis, and each
    new vector doubles its basis's span.
    """
    spaces = [((), (0,))]
    for top in range(omega):
        grown = []
        for basis, span in spaces:
            pivots = sum(1 << m.bit_length() - 1 for m in basis)
            free = [1 << b for b in range(top) if not pivots >> b & 1]
            for choice in range(1 << len(free)):
                v = 1 << top | sum(f for i, f in enumerate(free) if choice >> i & 1)
                grown.append(((*basis, v), span + tuple(s ^ v for s in span)))
        spaces += grown
    spaces.sort(key=lambda t: (len(t[0]), sorted(m.bit_count() for m in t[0]), t[0]))
    return tuple(spaces)


@memoise
def _subgroup_lattice(level: int) -> tuple[ALSubgroup, ...]:
    """The subspaces of F2^omega(N), each mapped onto B(N) through the
    level's divisors by mask (`_mask_divisors`), bit i standing for the i-th
    prime power of N.  The subspaces, their spans and their order depend
    only on omega, so a subgroup costs two list reads per element: its
    divisor, and that divisor's `hall_mask` bit (its rank, sorted)."""
    divs = _mask_divisors(level)
    ranked = sorted(divs)
    bits = [1 << ranked.index(d) for d in divs]
    spaces = _subspaces(factor(level).omega)
    return tuple(ALSubgroup._of_masks(level, divs, bits, basis, span) for basis, span in spaces)
