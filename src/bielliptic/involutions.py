"""Fixed-point counts and the algebra of the extra involutions of X0(N).

Besides the Atkin-Lehner involutions w_d, the normalizer of Gamma0(N)
contributes S2 (and its conjugates w_{2^a} S2 w_{2^a} and V2 = S2 w_{2^a} S2)
when 4 | N, and V3 = S3 w9 S3^2 when 9 exactly divides N.  An element here is
a word in the 2-part group <S2, w_{2^a}> (dihedral of order 8 for a >= 3,
symmetric of order 6 for a = 2), times an optional V3, times an Atkin-Lehner
tail.  Composition uses only the published commutation rules; any product
that leaves the commuting-involution framework raises OrderViolation.

Each level has one involution table, memoised: the identity and
`level_involutions(N)`, with the product of every ordered pair as an index,
or as the rule and message of the OrderViolation `compose` raises for it.
Building it checks that the table is closed (a product that is an
involution but not listed raises IntegrityError).  `group_closure` reads
products from the table and holds the group as a bitmask over its indices,
so it calls no `compose`, and it returns one shared InvolutionGroup per
mask.  `modsym.clear_cache()` empties these tables with the others.

Every quotient genus the package computes is a Hurwitz count, h with
|G| (2h - 2) + sum of fixed points = 2g - 2 for a group G of commuting
involutions, memoised per closed group and per Atkin-Lehner subgroup.  The
only input from modular symbols is `fix_al`, the Lefschetz number
2 - tr(w_Q | S2) of w_Q on the 2g-dimensional cuspidal symbols; the counts
of the extra involutions reduce to those through conjugation and the
two-commuting-involutions identity #(uv, X) = 2#(u, X/v) - #(u, X).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import IntegrityError, OrderViolation
from .modsym import build_space
from .ntheory import (
    ALSubgroup, _is_hall_divisor, _need_level, hall_divisors, hall_product, memoise, parse_w,
)
from .x0invariants import genus_x0

_ID2 = (0, 0)
_S2W = (0, 1)
_V2W = (1, 1)
_KIND_ORDER = {"id": 0, "al": 1, "s2": 2, "s2c": 3, "v2": 4, "v3": 5}


def _two_alpha(N: int) -> int:
    a = 0
    while N % 2 == 0:
        N //= 2
        a += 1
    return a


def _f_word(alpha: int):
    """The word of the plain involution w_{2^alpha} inside <S2, w_{2^alpha}>."""
    return (3, 1) if alpha >= 3 else (2, 1)


def _word_mul(w1, w2, modulus):
    k1, e1 = w1
    k2, e2 = w2
    return ((k1 + (k2 if e1 == 0 else -k2)) % modulus, (e1 + e2) % 2)


def _coprime3(n: int) -> int:
    while n % 3 == 0:
        n //= 3
    return n


@dataclass(frozen=True)
class ExtInvolution:
    """Canonical form: (word in the 2-part group) * V3^v3 * w_tail.

    ``tail`` is a Hall divisor of N not involving the 2-part when 4 | N
    (the 2-part then lives in the word); otherwise a plain Hall divisor.
    """

    level: int
    word2: tuple[int, int]
    e3: int
    tail: int

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, N: int) -> "ExtInvolution":
        _need_level(N)
        return cls(N, _ID2, 0, 1)

    @classmethod
    def al(cls, N: int, d: int) -> "ExtInvolution":
        _need_level(N)
        if not _is_hall_divisor(d, N):
            raise ValueError(f"w{d} is not an Atkin-Lehner involution at level {N}")
        alpha = _two_alpha(N)
        if alpha >= 2 and d % 2 == 0:
            return cls(N, _f_word(alpha), 0, d >> alpha)
        return cls(N, _ID2, 0, d)

    @classmethod
    def s2(cls, N: int, r: int = 1) -> "ExtInvolution":
        cls._need_s2(N, r)
        return cls(N, _S2W, 0, r)

    @classmethod
    def s2_conj(cls, N: int, r: int = 1) -> "ExtInvolution":
        """w_{2^a} S2 w_{2^a} (times w_r); equals V2 when 4 exactly divides N."""
        cls._need_s2(N, r)
        alpha = _two_alpha(N)
        f = _f_word(alpha)
        word = _word_mul(_word_mul(f, _S2W, 4 if alpha >= 3 else 3), f,
                         4 if alpha >= 3 else 3)
        return cls(N, word, 0, r)

    @classmethod
    def v2(cls, N: int, d: int = 1) -> "ExtInvolution":
        """V2 * w_d; d may carry the full 2-part 2^alpha only when alpha >= 3."""
        _need_level(N)
        alpha = _two_alpha(N)
        if alpha < 2:
            raise ValueError(f"V2 needs 4 | N, got N={N}")
        if not _is_hall_divisor(d, N):
            raise ValueError(f"w{d} is not an Atkin-Lehner involution at level {N}")
        if d % 2:
            return cls(N, _V2W, 0, d)
        if alpha < 3:
            raise OrderViolation(
                f"V2*w{d} has order > 2 at level {N}",
                rule="v2-even-tail-needs-alpha-3",
            )
        return cls(N, (2, 0), 0, d >> alpha)

    @classmethod
    def v3(cls, N: int, d: int = 1) -> "ExtInvolution":
        _need_level(N)
        if N % 9 or (N // 9) % 3 == 0:
            raise ValueError(f"V3 needs 9 || N, got N={N}")
        if not _is_hall_divisor(d, N):
            raise ValueError(f"w{d} is not an Atkin-Lehner involution at level {N}")
        alpha = _two_alpha(N)
        word = _ID2
        if alpha >= 2 and d % 2 == 0:
            word = _f_word(alpha)
            d >>= alpha
        elem = cls(N, word, 1, d)
        if elem._al_coprime3() % 3 != 1:
            raise OrderViolation(
                f"V3*w{d if word == _ID2 else d << alpha} has order 4 at level {N}",
                rule="v3-tail-2-mod-3",
            )
        return elem

    @staticmethod
    def _need_s2(N: int, r: int):
        _need_level(N)
        if N % 4:
            raise ValueError(f"S2-type involutions need 4 | N, got N={N}")
        if not _is_hall_divisor(r, N) or r % 2 == 0:
            raise ValueError(f"w{r} is not an odd Atkin-Lehner involution at level {N}")

    # -- structure -----------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.word2 == _ID2 and self.e3 == 0 and self.tail == 1

    def _alpha(self) -> int:
        return _two_alpha(self.level)

    def _al_part(self) -> int:
        """Full Atkin-Lehner divisor when the word is trivial or pure w_{2^a}."""
        alpha = self._alpha()
        if self.word2 == _ID2:
            return self.tail
        if alpha >= 2 and self.word2 == _f_word(alpha):
            return self.tail << alpha
        raise IntegrityError("element has a genuine S2-part")

    def _al_coprime3(self) -> int:
        return _coprime3(self._al_part())

    @cached_property
    def kind(self) -> str:
        alpha = self._alpha()
        if self.e3:
            return "v3"
        if self.word2 == _ID2 or (alpha >= 2 and self.word2 == _f_word(alpha)):
            return "id" if self.is_identity else "al"
        if self.word2 == _S2W:
            return "s2"
        if alpha >= 3 and self.word2 == (2, 1):
            return "s2c"
        if self.word2 == _V2W or (alpha >= 3 and self.word2 == (2, 0)):
            return "v2"
        raise IntegrityError(f"unnamed word {self.word2}")

    @cached_property
    def name(self) -> str:
        kind = self.kind
        if kind == "id":
            return "id"
        if kind == "al":
            return f"w{self._al_part()}"
        alpha = self._alpha()
        if kind == "v3":
            d = self._al_part()
            return "V3" if d == 1 else f"V3*w{d}"
        if kind == "v2":
            d = self.tail << alpha if self.word2 == (2, 0) else self.tail
            return "V2" if d == 1 else f"V2*w{d}"
        base = "S2" if kind == "s2" else "S2C"
        return base if self.tail == 1 else f"{base}*w{self.tail}"

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.tail, self.word2, self.e3)

    def __str__(self):
        return self.name


def parse_element(N: int, text: str) -> ExtInvolution:
    """Parse "w63", "S2", "S2C*w11", "V2*w40", "V3*w7" at the given level;
    each w token is read by `parse_w`, as in `ALSubgroup.parse`."""
    _need_level(N)
    head, *rest = text.strip().split("*")
    if head.startswith("w"):
        if rest:
            raise ValueError(f"unexpected factor after {head!r} in {text!r}")
        return ExtInvolution.al(N, parse_w(head))
    if len(rest) > 1:
        raise ValueError(f"cannot parse involution {text!r}")
    tail = parse_w(rest[0]) if rest else 1
    if head == "id":
        return ExtInvolution.identity(N)
    if head == "S2":
        return ExtInvolution.s2(N, tail)
    if head == "S2C":
        return ExtInvolution.s2_conj(N, tail)
    if head == "V2":
        return ExtInvolution.v2(N, tail)
    if head == "V3":
        return ExtInvolution.v3(N, tail)
    raise ValueError(f"cannot parse involution {text!r}")


def compose(a: ExtInvolution, b: ExtInvolution) -> ExtInvolution:
    """Product of two involutions in canonical form, if it is again one.

    Raises OrderViolation when the pair does not commute under the published
    rules (the product then has order > 2) or when no rule covers the pair.
    """
    if a.level != b.level:
        raise ValueError("cannot compose involutions of different levels")
    N = a.level
    alpha = _two_alpha(N)
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
        if result._al_coprime3() % 3 != 1:
            raise OrderViolation(
                f"{a.name} * {b.name} has order 4 at level {N}",
                rule="v3-tail-2-mod-3",
            )
    return result


@dataclass(frozen=True)
class InvolutionGroup:
    """Closed set of commuting involutions plus the identity."""

    level: int
    elements: frozenset[ExtInvolution]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements, key=ExtInvolution.sort_key))

    def nontrivial(self):
        return [e for e in self if not e.is_identity]

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self)


def group_closure(N: int, generators) -> InvolutionGroup:
    """The group a generator list spans; all elements must be involutions.

    Built by doubling: a generator g not yet in the group G adds the coset
    G*g, which doubles G because its elements commute and square to the
    identity.  A product outside the commuting-involution framework raises
    OrderViolation; a coset that meets G means the published rules do not
    form a group and raises IntegrityError.  Elements are indices into the
    level's involution table and G is a bitmask over them, so a closure
    reads products and calls no `compose`.
    """
    table = _involution_table(N)
    gens = [table.position(N, g) for g in generators]
    products = table.products
    elems = [0]
    mask = 1
    for g in gens:
        if mask >> g & 1:
            continue
        coset = [products[e][g] for e in elems]
        for p in coset:
            if type(p) is not int:
                rule, message = p
                names = ", ".join(table.elements[i].name for i in gens)
                raise OrderViolation(
                    f"<{names}> is not an involution group: {message}", rule=rule
                )
            mask |= 1 << p
        elems += coset
    size = mask.bit_count()
    if size < len(elems):
        raise IntegrityError(f"closure of {size} elements is not a 2-group")
    return _mask_group(N, mask)


class _InvolutionTable:
    """The identity and `level_involutions(N)`, with every ordered product.

    ``products[i][j]`` is the index of elements[i] * elements[j], or the
    (rule, message) of the OrderViolation that `compose` raises for the pair.
    A product that is an involution but not an element raises IntegrityError:
    the table must be closed for bitmask closures to be exact.
    """

    __slots__ = ("elements", "index", "al_index", "products")

    def __init__(self, N: int):
        elements = (ExtInvolution.identity(N), *_level_involutions(N))
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.al_index = {
            e._al_part(): i for i, e in enumerate(elements) if e.kind in ("id", "al")
        }
        self.products = tuple(tuple(self._product(a, b) for b in elements) for a in elements)

    def _product(self, a: ExtInvolution, b: ExtInvolution):
        try:
            c = compose(a, b)
        except OrderViolation as exc:
            return exc.rule, str(exc)
        i = self.index.get(c)
        if i is None:
            raise IntegrityError(
                f"{a.name} * {b.name} is not in the involution table of level {a.level}"
            )
        return i

    def position(self, N: int, g) -> int:
        """Index of a generator: an int d (w_d), a name, or an ExtInvolution."""
        if type(g) is int and g in self.al_index:
            return self.al_index[g]
        if isinstance(g, str):
            g = parse_element(N, g)
        elif not isinstance(g, ExtInvolution):
            g = ExtInvolution.al(N, g)
        if g.level != N:
            raise ValueError("generator level mismatch")
        i = self.index.get(g)
        if i is None:
            raise ValueError(f"{g!r} is not an involution of level {N}")
        return i


@memoise
def _involution_table(N: int) -> _InvolutionTable:
    return _InvolutionTable(N)


@memoise
def _mask_group(N: int, mask: int) -> InvolutionGroup:
    """The one shared group whose elements are the table's set bits."""
    elements = _involution_table(N).elements
    return InvolutionGroup(
        N, frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
    )


# -- fixed-point counts ------------------------------------------------


@memoise
def fix_al(N: int, Q: int) -> int:
    """#(w_Q, X0(N)) as the Lefschetz number 2 - tr(w_Q | S2), the trace on
    the 2g-dimensional cuspidal symbols: the one place the package reads
    modular symbols.  Memoised per (N, Q); `modsym.clear_cache()` empties
    the table.
    """
    if Q == 1 or not _is_hall_divisor(Q, N):
        raise ValueError(f"need a Hall divisor Q > 1 of {N}, got {Q}")
    count = 2 - build_space(N).al_trace_cuspidal(Q)
    if count < 0:
        raise IntegrityError(f"negative fixed-point count for w_{Q} at level {N}")
    return count


def fix_count(elem: ExtInvolution) -> int:
    """Fixed points of a canonical extended involution on X0(N).

    Every count reduces to Atkin-Lehner counts and genera, by conjugation and
    by #(uv, X) = 2#(u, X/v) - #(u, X) for commuting u, v.  With r the odd
    tail and 2^a || N:
      V2 w_r          the count of w_{2^a r};
      V3 w_d          the count of w_{9r}, r the prime-to-3 part of d;
      S2 (and S2C)    (2g(N) - 2) - 2(2g(N/2) - 2);
      S2 w_r          2#(w_r, X0(N/2)) - #(w_r, X0(N));
      V2 w_{2^a r}    2#(S2 w_r, X0(N/2)) - #(S2 w_r, X0(N)).
    The constructors have already checked that the element exists and has
    order 2; a negative count raises IntegrityError.
    """
    N = elem.level
    kind = elem.kind
    if kind == "id":
        raise ValueError("the identity has no fixed-point count")
    if kind == "al":
        return fix_al(N, elem._al_part())
    if kind == "v3":
        return fix_al(N, hall_product(9, _coprime3(elem._al_part())))
    r = elem.tail
    if kind == "v2" and elem.word2 == _V2W:
        return fix_al(N, r << _two_alpha(N))

    def s2_count(M: int) -> int:
        if r == 1:
            count = (2 * genus_x0(M) - 2) - 2 * (2 * genus_x0(M // 2) - 2)
        else:
            count = 2 * fix_al(M // 2, r) - fix_al(M, r)
        if count < 0:
            raise IntegrityError(f"negative count for S2*w{r} at level {M}")
        return count

    if kind != "v2":
        return s2_count(N)
    count = 2 * s2_count(N // 2) - s2_count(N)
    if count < 0:
        raise IntegrityError(f"negative count for V2*w{r << _two_alpha(N)} at level {N}")
    return count


def quotient_genus_hurwitz(N: int, group) -> int:
    """Genus of X0(N)/G for a closed group of commuting involutions, a
    generator list, or an `ALSubgroup`.

    Solves |G| (2h - 2) + sum of fixed points = 2 g(X0(N)) - 2 exactly;
    a non-integral solution means a wrong count somewhere and raises.
    Memoised per group and per subgroup.
    """
    if isinstance(group, ALSubgroup):
        return _subgroup_genus(ALSubgroup.of(N, group))
    G = group if isinstance(group, InvolutionGroup) else group_closure(N, group)
    if G.level != N:
        raise ValueError("group level mismatch")
    return _group_genus(G)


def _hurwitz(N: int, order: int, fixed: int, name) -> int:
    """h with order (2h - 2) + fixed = 2 g(X0(N)) - 2; `name()` names the
    group when the count is not integral or h is negative."""
    rhs = 2 * genus_x0(N) - 2 - fixed
    if rhs % (2 * order):
        raise IntegrityError(f"Hurwitz count not integral for {name()} at level {N}")
    h = rhs // (2 * order) + 1
    if h < 0:
        raise IntegrityError(f"negative quotient genus for {name()} at level {N}")
    return h


@memoise
def _group_genus(G: InvolutionGroup) -> int:
    return _hurwitz(G.level, G.order, sum(fix_count(e) for e in G.nontrivial()), G.names)


@memoise
def _subgroup_genus(sub: ALSubgroup) -> int:
    N = sub.level
    return _hurwitz(N, sub.order, sum(fix_al(N, d) for d in sub.elements if d != 1), sub.label)


# -- tables -------------------------------------------------------------


def level_involutions(N: int) -> list[ExtInvolution]:
    """Every involution the witness search tries at level N, in search order.

    The w_d first; when 4 | N, then S2*w_r, S2C*w_r, V2*w_r and V2*w_{2^a r}
    for odd Hall divisors r; then the V3*w_d of order 2 when 9 || N.  An
    element reached twice (S2C*w_r = V2*w_r when 4 || N) is listed once.
    """
    return list(_level_involutions(N))


@memoise
def _level_involutions(N: int) -> tuple[ExtInvolution, ...]:
    elems = [ExtInvolution.al(N, d) for d in hall_divisors(N)[1:]]
    alpha = _two_alpha(N)
    if alpha >= 2:
        odd = [r for r in hall_divisors(N) if r % 2]
        for ctor in (ExtInvolution.s2, ExtInvolution.s2_conj, ExtInvolution.v2):
            elems += [ctor(N, r) for r in odd]
        if alpha >= 3:
            elems += [ExtInvolution.v2(N, r << alpha) for r in odd]
    if N % 9 == 0 and (N // 9) % 3:
        elems += [
            ExtInvolution.v3(N, d) for d in hall_divisors(N) if _coprime3(d) % 3 == 1
        ]
    return tuple(dict.fromkeys(elems))


def fix_table(N: int) -> list[tuple[str, int]]:
    """All computable fixed-point counts at one level, canonically ordered.

    S2C*w_r is left out: it is conjugate to S2*w_r and has the same count.
    """
    elems = [e for e in level_involutions(N) if e.kind != "s2c"]
    elems.sort(key=ExtInvolution.sort_key)
    return [(e.name, fix_count(e)) for e in elems]


def fix_table_tsv(N: int) -> str:
    lines = ["element\tcount"]
    lines += [f"{name}\t{count}" for name, count in fix_table(N)]
    return "\n".join(lines)
