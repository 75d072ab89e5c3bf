"""Level gate and exclusion calculus for bielliptic quotient screening.

Each rule is a pure predicate on numbers the atlas gathers, returning a
RuleResult with a stable id and a literature citation; rules compute no genus
or fixed-point count and never consult the expected classification.  The level
gate carries the published lists of non-squarefree, non-prime-power levels
whose full Atkin-Lehner quotient is of genus <= 1, hyperelliptic, or
bielliptic; outside those lists no quotient can be bielliptic at all.
"""

from __future__ import annotations

from .ntheory import ALSubgroup, Frozen, factor, psi

# ---------------------------------------------------------------------------
# level gate data: classification of the full quotients X0(N)/B(N)

GATE_GENUS0 = frozenset({12, 18, 20, 24, 28, 36, 44, 45, 50, 54, 56, 60, 92})

GATE_GENUS1 = frozenset({
    40, 48, 52, 63, 68, 72, 75, 76, 80, 84, 90, 96, 98, 99, 100, 108,
    120, 124, 126, 132, 140, 150, 156, 188, 220,
})

GATE_GENUS2 = frozenset({
    88, 104, 112, 116, 117, 135, 147, 153, 168, 180, 184, 198, 204, 276,
    284, 380,
})

GATE_HYPERELLIPTIC = {136: 3, 171: 3, 207: 3, 252: 3, 315: 3, 176: 4, 279: 5}

GATE_BIELLIPTIC = {
    88: 2, 112: 2, 116: 2, 153: 2, 180: 2, 184: 2, 198: 2, 204: 2, 276: 2,
    284: 2, 380: 2,
    144: 3, 152: 3, 164: 3, 189: 3, 196: 3, 207: 3, 234: 3, 236: 3, 240: 3,
    245: 3, 248: 3, 252: 3, 294: 3, 312: 3, 315: 3, 348: 3, 420: 3, 476: 3,
    148: 4, 160: 4, 172: 4, 200: 4, 224: 4, 225: 4, 228: 4, 242: 4, 260: 4,
    264: 4, 275: 4, 280: 4, 300: 4, 306: 4, 342: 4,
    364: 5, 444: 5, 495: 5,
    558: 7,
}


class StarGate(Frozen):
    """Classification of the full quotient at one level; `kind` is one of
    genus0, genus1, hyperelliptic, bielliptic and fails-gate."""

    __match_args__ = ("N", "kind", "star_genus")

    def __init__(self, N: int, kind: str, star_genus: int | None):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "star_genus", star_genus)


def star_gate(N: int) -> StarGate:
    """Gate verdict for a non-squarefree, non-prime-power level.  A level in
    a hyperelliptic list and in GATE_BIELLIPTIC too is of kind hyperelliptic."""
    fac = factor(N)
    if fac.is_squarefree or fac.omega < 2:
        raise ValueError(f"level {N} is outside the standing hypothesis "
                         "(need non-squarefree, at least two primes)")
    if N in GATE_GENUS0:
        return StarGate(N, "genus0", 0)
    if N in GATE_GENUS1:
        return StarGate(N, "genus1", 1)
    if N in GATE_GENUS2:
        return StarGate(N, "hyperelliptic", 2)
    if N in GATE_HYPERELLIPTIC:
        return StarGate(N, "hyperelliptic", GATE_HYPERELLIPTIC[N])
    if N in GATE_BIELLIPTIC:
        return StarGate(N, "bielliptic", GATE_BIELLIPTIC[N])
    return StarGate(N, "fails-gate", None)


# ---------------------------------------------------------------------------
# rules


class RuleResult(Frozen):
    __match_args__ = ("rule_id", "citation", "verdict", "inputs", "detail")

    def __init__(self, rule_id: str, citation: str, verdict: str, inputs: tuple = (),
                 detail: str = ""):
        object.__setattr__(self, "rule_id", rule_id)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "detail", detail)

    def line(self) -> str:
        args = ",".join(str(x) for x in self.inputs)
        tail = f" # {self.detail}" if self.detail else ""
        return f"{self.rule_id}({args}) -> {self.verdict} [{self.citation}]{tail}"


_CASTELNUOVO = "Castelnuovo inequality (Accola, special form)"
_MANYFIX = "involution with more than 8 fixed points forces biellipticity or none"
_UNRAMIFIED = "unramified covering criterion for non-hyperelliptic targets"
_TWOGROUP = "2-group orbit argument on the fixed points of a central involution"
_OGG = "supersingular-point count bound on the quotient index"
_CLOSURE = "total ramification forces every fixed-point-bearing involution inside"


def rule_castelnuovo(g_x: int, d: int, g_y: int) -> RuleResult:
    """A bielliptic X with a degree-d map to Y has g(X) <= d*g(Y) + d + 1,
    unless the map factors through the bielliptic quotient."""
    if d < 2 or g_x < 0 or g_y < 0:
        raise ValueError("need d >= 2 and nonnegative genera")
    verdict = "must-factor" if g_x > d * g_y + d + 1 else "consistent"
    return RuleResult("castelnuovo", _CASTELNUOVO, verdict, (g_x, d, g_y))


def rule_many_fixed_points(fix_count: int, quotient_is_elliptic: bool) -> RuleResult:
    """An involution with more than 8 fixed points is the bielliptic involution
    or there is none; so count > 8 with a non-elliptic quotient excludes."""
    if fix_count < 0:
        raise ValueError("fixed-point count must be nonnegative")
    verdict = (
        "excludes" if fix_count > 8 and not quotient_is_elliptic else "inconclusive"
    )
    return RuleResult(
        "many-fixed-points", _MANYFIX, verdict, (fix_count, quotient_is_elliptic)
    )


def rule_unramified_cover(
    g: int, group_order: int, h: int, y_hyperelliptic: bool
) -> RuleResult:
    """If Y = X/G is not hyperelliptic of genus >= 2, a bielliptic X forces
    the cover to be unramified: g - 1 = |G| (h - 1)."""
    if h < 2:
        raise ValueError("target genus must be at least 2")
    verdict = (
        "excludes"
        if not y_hyperelliptic and g - 1 != group_order * (h - 1)
        else "inconclusive"
    )
    return RuleResult(
        "unramified-cover", _UNRAMIFIED, verdict, (g, group_order, h, y_hyperelliptic)
    )


def rule_two_group(g: int, subgroup_order: int) -> RuleResult:
    """For g >= 6 a 2-group H of order not dividing 2(g-1) must contain the
    bielliptic involution; excludes once H is known to contain none."""
    if subgroup_order < 1 or subgroup_order & (subgroup_order - 1):
        raise ValueError("subgroup order must be a power of 2")
    verdict = (
        "excludes" if g >= 6 and (2 * (g - 1)) % subgroup_order else "inconclusive"
    )
    return RuleResult("two-group", _TWOGROUP, verdict, (g, subgroup_order))


def rule_ogg_bound(N: int, w_order: int, p: int) -> RuleResult:
    """psi(N)/|W| <= 12 (2(p+1)^2 - 1)/(p - 1) whenever the quotient is
    bielliptic over Q and p does not divide N."""
    if N % p == 0:
        raise ValueError(f"prime {p} must not divide the level {N}")
    lhs = psi(N) * (p - 1)
    rhs = w_order * 12 * (2 * (p + 1) ** 2 - 1)
    verdict = "excludes" if lhs > rhs else "inconclusive"
    return RuleResult(
        "ogg-bound", _OGG, verdict, (N, w_order, p),
        detail=f"psi/|W|={psi(N)}/{w_order}, bound={rhs}/{w_order * (p - 1)}",
    )


def rule_fixed_point_closure(
    N: int, label: str, g: int, index: int, star_genus: int, fixed_outside: int | None
) -> RuleResult:
    """Where the full quotient (of genus `star_genus`) is bielliptic but not
    subhyperelliptic, X0(N)/W -> X0(N)/B(N) (degree `index`) is unramified:
    every w_d with fixed points lies in W (`fixed_outside` is the first d
    that does not, or None) and the genus g of X0(N)/W matches exactly."""
    if fixed_outside is not None:
        detail = f"w{fixed_outside} has fixed points but is outside W"
    elif g - 1 != index * (star_genus - 1):
        detail = f"covering not unramified: {g - 1} != {index}*({star_genus}-1)"
    else:
        detail = ""
    verdict = "excludes" if detail else "inconclusive"
    return RuleResult("fixed-point-closure", _CLOSURE, verdict, (N, label), detail=detail)


# ---------------------------------------------------------------------------
# isomorphism reduction


def iso_reduce_w4(N: int, W) -> tuple[int, ALSubgroup] | None:
    """When 4 || N and w4 lies in W, X0(N)/W is isomorphic to X0(N/2)/W'
    with W' the odd part of W.  Returns None when not applicable."""
    sub = ALSubgroup.of(N, W)
    if factor(N).valuation(2) != 2 or 4 not in sub:
        return None
    odd = [d for d in sub if d % 2 and d > 1]
    return N // 2, ALSubgroup(N // 2, odd)


def gate_levels() -> list[int]:
    """All levels admitted by the gate, ascending."""
    out = set(GATE_GENUS0) | set(GATE_GENUS1) | set(GATE_GENUS2)
    out |= set(GATE_HYPERELLIPTIC) | set(GATE_BIELLIPTIC)
    return sorted(out)
