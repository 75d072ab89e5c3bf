"""Fixed-point counts and the algebra of the extra involutions of X0(N).

Besides the Atkin-Lehner involutions w_d, the normalizer of Gamma0(N)
contributes S2 (and its conjugates w_{2^a} S2 w_{2^a} and V2 = S2 w_{2^a} S2)
when 4 | N, and V3 = S3 w9 S3^2 when 9 exactly divides N.  An element here is
a word in the 2-part group <S2, w_{2^a}> (dihedral of order 8 for a >= 3,
symmetric of order 6 for a = 2), times an optional V3, times an Atkin-Lehner
tail.  Composition uses only the published commutation rules; a product
that leaves the commuting-involution framework is refused.

The rules are written once, in `_compose_fields`, which returns the fields
of a product, or the (rule, message) that refuses it, given the level's
constants from `_rules`.  Only the level's involution table runs them, once
per ordered pair of element classes (`_InvolutionTable`).  Each level has
one memoised table, the one cache of its involution algebra: the identity
and `level_involutions(N)`, the product rows a closure has read (an index or
a refusal per entry), each element's fixed-point count and each closed
group's genus.  A group is a bitmask over the table, with the list of its
indices while it grows; `_InvolutionTable.extend` doubles it by one coset,
or returns the first refusal in the coset.  `group_closure` and the atlas's
witness search grow groups that way; `close` is the one place a refusal
raises OrderViolation.  A closed group is kept only as its mask: `members`
lists its elements in table order, and `group_closure` returns that tuple.

Every quotient genus the package computes is a Hurwitz count, h with
|G| (2h - 2) + sum of fixed points = 2g - 2 for a group G of commuting
involutions, counted once per closed mask by the level's table
(`_InvolutionTable.genus`), the one store of fixed-point counts and
genera; `modsym.clear_cache()` empties it with the other memo tables.  An
Atkin-Lehner subgroup is its mask on that table (`ALSubgroup.hall_mask`),
since the table lists w_d at the rank of d among the Hall divisors.

The only input from modular symbols is `fix_al`, the Lefschetz number
2 - tr(w_Q | S2) of w_Q on the 2g-dimensional cuspidal symbols.  It keeps
no memo: the space's trace cache is the one store of a trace, and the
table keeps each element's count (`_InvolutionTable.fix`).  The counts of the
extra involutions reduce to those through conjugation and the
two-commuting-involutions identity #(uv, X) = 2#(u, X/v) - #(u, X).
"""

from __future__ import annotations

from functools import cached_property

from .errors import IntegrityError, OrderViolation
from .modsym import build_space
from .ntheory import (
    ALSubgroup, Frozen, _is_hall_divisor, _need_level, factor, hall_divisors, hall_product,
    memoise, parse_w,
)
from .x0invariants import genus_x0

_ID2 = (0, 0)
_S2W = (0, 1)
_V2W = (1, 1)
_KIND_ORDER = {"id": 0, "al": 1, "s2": 2, "s2c": 3, "v2": 4, "v3": 5}


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


class ExtInvolution(Frozen):
    """Canonical form: (word in the 2-part group) * V3^v3 * w_tail.

    ``tail`` is a Hall divisor of N not involving the 2-part when 4 | N
    (the 2-part then lives in the word); otherwise a plain Hall divisor.
    """

    __match_args__ = ("level", "word2", "e3", "tail")

    def __init__(self, level: int, word2: tuple[int, int], e3: int, tail: int):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "word2", word2)
        object.__setattr__(self, "e3", e3)
        object.__setattr__(self, "tail", tail)

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
        alpha = factor(N).valuation(2)
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
        alpha = factor(N).valuation(2)
        f = _f_word(alpha)
        word = _word_mul(_word_mul(f, _S2W, 4 if alpha >= 3 else 3), f,
                         4 if alpha >= 3 else 3)
        return cls(N, word, 0, r)

    @classmethod
    def v2(cls, N: int, d: int = 1) -> "ExtInvolution":
        """V2 * w_d; d may carry the full 2-part 2^alpha only when alpha >= 3."""
        _need_level(N)
        alpha = factor(N).valuation(2)
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
        if factor(N).valuation(3) != 2:
            raise ValueError(f"V3 needs 9 || N, got N={N}")
        if not _is_hall_divisor(d, N):
            raise ValueError(f"w{d} is not an Atkin-Lehner involution at level {N}")
        alpha = factor(N).valuation(2)
        word = _ID2
        if alpha >= 2 and d % 2 == 0:
            word = _f_word(alpha)
            d >>= alpha
        elem = cls(N, word, 1, d)
        if _coprime3(elem._al_part()) % 3 != 1:
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
        return factor(self.level).valuation(2)

    def _al_part(self) -> int:
        """Full Atkin-Lehner divisor when the word is trivial or pure w_{2^a}."""
        alpha = self._alpha()
        if self.word2 == _ID2:
            return self.tail
        if alpha >= 2 and self.word2 == _f_word(alpha):
            return self.tail << alpha
        raise IntegrityError("element has a genuine S2-part")

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


def _rules(N: int):
    """The level's constants for the composition rules: (N, alpha, the
    modulus of the 2-part words, the word of w_{2^alpha}, eps2), where
    2^alpha || N and eps2 = 1 when 2^alpha = 2 mod 3 and 4 | N."""
    alpha = factor(N).valuation(2)
    return (
        N,
        alpha,
        4 if alpha >= 3 else 3,
        _f_word(alpha) if alpha >= 2 else None,
        1 if alpha >= 2 and (1 << alpha) % 3 == 2 else 0,
    )


def _compose_fields(rules, a: ExtInvolution, b: ExtInvolution):
    """The composition rules: the fields (word2, e3, tail) of a*b at the
    level whose `_rules` are given, or the (rule, message) that refuses a
    product of order > 2 or a pair no rule covers."""
    N, alpha, modulus, fword, eps2 = rules
    twist = 0
    if a.e3 and b.word2 != _ID2:
        if b.word2 != fword:
            return "s2-v3-mix", f"no composition rule for {b.name} across V3 (level {N})"
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
        return "two-part-rotation", f"{a.name} * {b.name} has order > 2 at level {N}"
    if v3:
        if word not in (_ID2, fword):
            return "s2-v3-mix", f"{a.name} * {b.name} mixes an S2-part with V3 (level {N})"
        # the prime-to-3 part of the Atkin-Lehner part, tail or 2^alpha tail
        if (_coprime3(tail) << (alpha if word == fword else 0)) % 3 != 1:
            return "v3-tail-2-mod-3", f"{a.name} * {b.name} has order 4 at level {N}"
    return word, v3, tail


def group_closure(N: int, generators) -> tuple[ExtInvolution, ...]:
    """The group a generator list spans; all elements must be involutions.

    Closed on the level's involution table (`_InvolutionTable.close`), one
    coset per generator not yet in the group, so a closure only reads
    products; one outside the commuting-involution framework raises
    OrderViolation.  Returns the elements in table order, identity first.
    """
    table = _involution_table(N)
    return table.members(table.close([table.position(g) for g in generators])[1])


class _InvolutionTable:
    """The identity and `level_involutions(N)`, with their ordered products.

    ``products[i]`` is None until `row(i)` first reads it (`extend` and
    `close` read the rows of a group's elements); entry j of the row is the
    index of elements[i] * elements[j], or the (rule, message) with which
    the rules (`_compose_fields`) refuse the pair.  The rules read a tail
    only through its prime-to-3 part mod 3, which multiplies, so an outcome
    depends only on the classes (word2, V3 bit, that residue) of the pair.
    The rules run on the level's `_rules` for the first pair of each ordered
    class pair; another pair's product has its word and V3 bit, and the
    hall_product of its tails, times 9 where the class pair twists, and is
    found by its fields.  A refused class pair keeps no outcome, so each of
    its pairs is run and its entry names it in its own order; `close` raises
    it.  A product that is not an element
    raises IntegrityError.  ``fixed`` keeps each element's `fix_count` once
    taken (`fix`), and ``genera`` each closed mask's Hurwitz genus (`genus`).
    """

    __slots__ = ("level", "elements", "fields", "products", "fixed", "genera",
                 "_rules", "_classes", "_outcomes")

    def __init__(self, N: int):
        elements = (ExtInvolution.identity(N), *level_involutions(N))
        self.level = N
        self.elements = elements
        self.fields = {(e.word2, e.e3, e.tail): i for i, e in enumerate(elements)}
        self._rules = _rules(N)
        ids: dict = {}
        self._classes = [
            ids.setdefault((e.word2, e.e3, _coprime3(e.tail) % 3), len(ids)) for e in elements
        ]
        self._outcomes = [[None] * len(ids) for _ in ids]
        self.products: list = [None] * len(elements)
        self.fixed: list = [None] * len(elements)
        self.genera: dict[int, int] = {}

    def row(self, i: int) -> list:
        """The products of elements[i] with each element, filled on first read."""
        row = self.products[i]
        if row is None:
            a, row = self.elements[i], []
            outcomes = self._outcomes[self._classes[i]]
            for b, cb in zip(self.elements, self._classes):
                tail = hall_product(a.tail, b.tail)
                out = outcomes[cb]
                if out is None:
                    c = _compose_fields(self._rules, a, b)
                    if type(c[0]) is str:
                        row.append(c)
                        continue
                    out = outcomes[cb] = c[0], c[1], c[2] != tail
                j = self.fields.get((out[0], out[1], hall_product(tail, 9) if out[2] else tail))
                if j is None:
                    raise IntegrityError(
                        f"{a.name} * {b.name} is not in the involution table of level {self.level}"
                    )
                row.append(j)
            self.products[i] = row
        return row

    def extend(self, elems: list, mask: int, g: int):
        """One doubling step: the group with index list `elems` and bitmask
        `mask`, grown by the coset elems*g for an index g outside it.

        Returns the grown (elems, mask), or the (rule, message) of the first
        refused product of the coset; it raises none.  Since the elements
        commute and square to the identity, the coset doubles the group; one
        that meets it means the rules do not form a group and raises
        IntegrityError.
        """
        products = self.products
        coset = [(products[e] or self.row(e))[g] for e in elems]
        for p in coset:
            if type(p) is not int:
                return p
            mask |= 1 << p
        size = mask.bit_count()
        if size < 2 * len(elems):
            raise IntegrityError(f"closure of {size} elements is not a 2-group")
        return elems + coset, mask

    def close(self, gens) -> tuple[list, int]:
        """The (elems, mask) of the group the generator indices span: one
        `extend` for each generator not yet in the group.  A refused coset
        product raises OrderViolation (the one place a refusal raises),
        naming the generators and that product's rule and message."""
        elems, mask = [0], 1
        for g in gens:
            if mask >> g & 1:
                continue
            grown = self.extend(elems, mask, g)
            if type(grown[0]) is str:
                rule, message = grown
                names = ", ".join(self.elements[i].name for i in gens)
                raise OrderViolation(
                    f"<{names}> is not an involution group: {message}", rule=rule
                )
            elems, mask = grown
        return elems, mask

    def members(self, mask: int) -> tuple[ExtInvolution, ...]:
        """The elements of a mask in table order, identity first."""
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def fix(self, i: int) -> int:
        """The `fix_count` of elements[i], taken once."""
        count = self.fixed[i]
        if count is None:
            count = self.fixed[i] = fix_count(self.elements[i])
        return count

    def genus(self, mask: int) -> int:
        """The genus h of X0(N)/G for the group G of a closed mask, counted
        once per mask: |G| (2h - 2) + the elements' counts (`fix`) =
        2 g(X0(N)) - 2.  A non-integral or negative h raises IntegrityError."""
        h = self.genera.get(mask)
        if h is None:
            N, order = self.level, mask.bit_count()
            rhs = 2 * genus_x0(N) - 2 - sum(
                self.fix(i) for i in range(1, mask.bit_length()) if mask >> i & 1)
            names = lambda: tuple(e.name for e in self.members(mask))
            if rhs % (2 * order):
                raise IntegrityError(f"Hurwitz count not integral for {names()} at level {N}")
            h = rhs // (2 * order) + 1
            if h < 0:
                raise IntegrityError(f"negative quotient genus for {names()} at level {N}")
            self.genera[mask] = h
        return h

    def position(self, g) -> int:
        """Index of a generator: an int d (w_d), a name, or an ExtInvolution."""
        N = self.level
        if isinstance(g, str):
            g = parse_element(N, g)
        elif not isinstance(g, ExtInvolution):
            g = ExtInvolution.al(N, g)
        if g.level != N:
            raise ValueError("generator level mismatch")
        i = self.fields.get((g.word2, g.e3, g.tail))
        if i is None:
            raise ValueError(f"{g!r} is not an involution of level {N}")
        return i


@memoise
def _involution_table(N: int) -> _InvolutionTable:
    return _InvolutionTable(N)


# -- fixed-point counts ------------------------------------------------


def fix_al(N: int, Q: int) -> int:
    """#(w_Q, X0(N)) as the Lefschetz number 2 - tr(w_Q | S2), the trace on
    the 2g-dimensional cuspidal symbols: the one place the package reads
    modular symbols.  Not memoised: the space's trace cache is the one store
    of a trace, and the level's involution table keeps each element's
    `fix_count` (`_InvolutionTable.fix`).
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
        return fix_al(N, r << factor(N).valuation(2))

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
        raise IntegrityError(f"negative count for {elem.name} at level {N}")
    return count


def quotient_genus_hurwitz(N: int, group) -> int:
    """Genus of X0(N)/G for the group G a generator list spans, or for an
    `ALSubgroup`; the members of a closed group (`group_closure`) span it.

    One route for both: the level's table solves the Hurwitz equation once
    per mask and raises on a non-integral or negative genus (`genus`); a
    subgroup is its `hall_mask`, a generator list the mask it closes to.
    """
    table = _involution_table(N)
    if isinstance(group, ALSubgroup):
        return table.genus(ALSubgroup.of(N, group).hall_mask)
    return table.genus(table.close([table.position(g) for g in group])[1])


# -- tables -------------------------------------------------------------


def level_involutions(N: int) -> list[ExtInvolution]:
    """Every involution the witness search tries at level N, in search order.

    The w_d first; when 4 | N, then S2*w_r, S2C*w_r, V2*w_r and V2*w_{2^a r}
    for odd Hall divisors r; then the V3*w_d of order 2 when 9 || N.  An
    element reached twice (S2C*w_r = V2*w_r when 4 || N) is listed once.
    Each is built from its fields, as its constructor would build it, with
    the level's constants read once.  Built afresh on each call.
    """
    _, alpha, modulus, f, _ = _rules(_need_level(N))
    divs = hall_divisors(N)
    # the word and tail of w_d: the 2-part moves into the word when 4 | N
    al = [(f, d >> alpha) if f and d % 2 == 0 else (_ID2, d) for d in divs]
    elems = [ExtInvolution(N, word, 0, tail) for word, tail in al[1:]]
    if f:
        words = [_S2W, _word_mul(_word_mul(f, _S2W, modulus), f, modulus), _V2W]
        if alpha >= 3:
            words.append((2, 0))
        odd = [r for r in divs if r % 2]
        elems += [ExtInvolution(N, word, 0, r) for word in words for r in odd]
    if factor(N).valuation(3) == 2:
        elems += [
            ExtInvolution(N, word, 1, tail)
            for d, (word, tail) in zip(divs, al) if _coprime3(d) % 3 == 1
        ]
    return list(dict.fromkeys(elems))


def fix_table(N: int) -> list[tuple[str, int]]:
    """All computable fixed-point counts at one level, canonically ordered.

    S2C*w_r is left out: it is conjugate to S2*w_r and has the same count.
    """
    table = _involution_table(N)
    rows = sorted((e.sort_key(), e.name, i) for i, e in enumerate(table.elements)
                  if i and e.kind != "s2c")
    return [(name, table.fix(i)) for _, name, i in rows]


def fix_table_tsv(N: int) -> str:
    lines = ["element\tcount"]
    lines += [f"{name}\t{count}" for name, count in fix_table(N)]
    return "\n".join(lines)
