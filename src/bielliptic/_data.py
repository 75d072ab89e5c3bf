"""Embedded datasets: golden genus tables, classification lists, curve data.

The genus tables are regression data only; the engine recomputes every entry
from scratch and the selftest compares.  Subgroups are keyed by sorted
generator tuples; row order for the tables is the canonical subgroup order
of ntheory.all_subgroups (trivial, single generators, pairs, full group).
"""

from __future__ import annotations

# -- genus tables, two prime factors: N -> (g, g<p1>, g<p2>, g<p1*p2>) ------

GENUS_TABLE_2P = {
    28: (2, 1, 0, 1),
    44: (4, 2, 1, 1),
    45: (3, 1, 1, 1),
    50: (2, 1, 1, 0),
    54: (4, 2, 1, 1),
    56: (5, 3, 1, 1),
    92: (10, 5, 1, 4),
    40: (3, 2, 2, 1),
    48: (3, 2, 2, 1),
    52: (5, 2, 3, 2),
    63: (5, 3, 3, 1),
    68: (7, 3, 4, 2),
    72: (5, 2, 3, 2),
    75: (5, 3, 3, 1),
    76: (8, 4, 3, 3),
    80: (7, 3, 4, 2),
    96: (9, 3, 5, 3),
    98: (7, 4, 3, 2),
    99: (9, 5, 3, 3),
    100: (7, 2, 4, 3),
    108: (10, 4, 4, 4),
    124: (14, 7, 3, 6),
    188: (22, 11, 4, 9),
    88: (9, 4, 5, 4),
    104: (11, 6, 6, 3),
    112: (11, 6, 4, 5),
    116: (13, 6, 7, 4),
    117: (11, 5, 6, 4),
    135: (13, 7, 6, 4),
    147: (11, 5, 6, 4),
    153: (15, 7, 6, 6),
    184: (21, 11, 5, 9),
    284: (34, 17, 7, 14),
    136: (15, 7, 8, 6),
    144: (13, 7, 7, 5),
    152: (17, 8, 9, 6),
    164: (19, 9, 10, 6),
    171: (17, 9, 9, 5),
    189: (19, 8, 10, 7),
    196: (17, 7, 9, 7),
    207: (21, 11, 8, 8),
    236: (28, 14, 10, 10),
    245: (21, 10, 9, 8),
    248: (29, 15, 9, 11),
    148: (17, 8, 9, 8),
    160: (17, 9, 9, 7),
    172: (20, 10, 9, 9),
    176: (19, 10, 10, 7),
    200: (19, 10, 10, 7),
    224: (25, 13, 11, 9),
    225: (19, 9, 10, 8),
    242: (22, 11, 10, 9),
    275: (25, 13, 11, 9),
    279: (29, 15, 15, 9),
}

# -- genus tables, three prime factors -------------------------------------
# N -> 16 genera in canonical subgroup order:
# 1, <p1>, <p2>, <p3>, <p1p2>, <p1p3>, <p2p3>, <p1p2p3>,
# <p1,p2>, <p1,p3>, <p2,p3>, <p1,p2p3>, <p2,p1p3>, <p3,p1p2>,
# <p1p2,p1p3>, B(N)     (pi = maximal prime-power divisors, ascending prime)

GENUS_TABLE_3P = {
    60: (7, 3, 4, 4, 4, 2, 1, 3, 2, 1, 1, 0, 1, 2, 0, 0),
    84: (11, 5, 5, 6, 5, 6, 6, 4, 2, 3, 3, 2, 2, 2, 3, 1),
    90: (11, 6, 5, 5, 6, 6, 5, 4, 3, 3, 2, 2, 2, 2, 3, 1),
    120: (17, 9, 9, 9, 7, 9, 5, 7, 4, 5, 3, 2, 4, 3, 2, 1),
    126: (17, 9, 9, 9, 9, 7, 5, 7, 5, 4, 3, 2, 3, 4, 2, 1),
    132: (19, 9, 10, 7, 10, 7, 10, 8, 5, 2, 4, 4, 3, 3, 4, 1),
    140: (19, 9, 10, 10, 8, 10, 7, 7, 4, 5, 4, 2, 4, 3, 3, 1),
    150: (19, 10, 10, 10, 9, 7, 7, 8, 5, 4, 4, 3, 3, 4, 2, 1),
    156: (23, 11, 11, 12, 11, 12, 6, 10, 5, 6, 3, 2, 5, 5, 3, 1),
    220: (31, 15, 16, 13, 16, 13, 10, 14, 8, 5, 4, 4, 6, 6, 4, 1),
    168: (25, 13, 13, 13, 11, 9, 13, 11, 6, 5, 7, 6, 4, 5, 4, 2),
    180: (25, 11, 13, 13, 11, 11, 13, 11, 5, 5, 7, 5, 5, 5, 5, 2),
    198: (29, 14, 15, 12, 14, 15, 12, 13, 7, 6, 5, 5, 7, 5, 6, 2),
    204: (31, 15, 16, 16, 16, 12, 13, 13, 8, 6, 7, 5, 5, 7, 5, 2),
    276: (43, 21, 22, 13, 22, 19, 22, 18, 11, 5, 7, 9, 8, 5, 10, 2),
    380: (55, 27, 28, 25, 28, 25, 16, 24, 14, 11, 7, 6, 11, 11, 7, 2),
    234: (35, 18, 17, 18, 18, 15, 16, 15, 9, 8, 8, 7, 6, 8, 7, 3),
    240: (37, 19, 19, 19, 19, 15, 15, 17, 10, 8, 8, 7, 7, 9, 6, 3),
    252: (37, 17, 19, 19, 19, 19, 13, 17, 9, 9, 7, 5, 9, 9, 7, 3),
    # The published 294 row prints 21/21/17/17 in the four w3-carrying cells.
    # Those values contradict the Hurwitz identity for <w2,w3> computed from
    # the printed row itself (4*(2*10-2) + 0+0+0 = 72 != 80 = 2g-2), likewise
    # for <w2,w147> (88 != 80), so they are misprints.  The corrected cells
    # below satisfy every identity and match an independent class-number
    # count of #(w3) = 4; see PRINTED_DEVIATIONS and the acceptance suite.
    294: (41, 21, 20, 21, 20, 17, 18, 18, 10, 9, 9, 8, 7, 9, 7, 3),
    312: (49, 25, 25, 25, 25, 19, 17, 23, 13, 10, 9, 8, 9, 12, 6, 3),
    315: (41, 21, 19, 21, 19, 21, 17, 17, 9, 11, 8, 7, 8, 8, 8, 3),
    348: (55, 27, 28, 28, 28, 22, 19, 25, 14, 11, 10, 8, 10, 13, 7, 3),
    476: (67, 33, 34, 34, 34, 30, 19, 29, 17, 15, 10, 7, 13, 15, 8, 3),
    228: (35, 17, 17, 18, 17, 18, 18, 16, 8, 9, 9, 8, 8, 8, 9, 4),
    260: (37, 17, 19, 19, 19, 19, 19, 15, 9, 9, 10, 7, 8, 8, 10, 4),
    264: (41, 19, 21, 21, 19, 21, 21, 17, 9, 10, 11, 8, 9, 8, 10, 4),
    280: (41, 21, 21, 21, 19, 17, 21, 19, 10, 9, 11, 10, 8, 9, 8, 4),
    300: (43, 19, 22, 22, 22, 22, 19, 19, 10, 10, 10, 7, 10, 10, 10, 4),
    306: (47, 23, 23, 22, 23, 24, 22, 20, 11, 11, 10, 9, 10, 9, 11, 4),
    342: (53, 26, 27, 27, 26, 24, 21, 24, 13, 12, 11, 9, 11, 12, 9, 4),
    364: (51, 25, 26, 26, 26, 24, 23, 23, 13, 12, 12, 10, 11, 12, 11, 5),
    444: (71, 35, 35, 36, 35, 36, 24, 32, 17, 18, 12, 10, 16, 16, 12, 5),
    495: (65, 33, 33, 29, 33, 29, 33, 25, 17, 13, 15, 13, 11, 11, 15, 5),
    558: (89, 45, 45, 45, 45, 41, 33, 41, 23, 21, 17, 15, 19, 21, 15, 7),
}

# Cells where the published table is internally inconsistent and the value
# above is the corrected one: (N, generators) -> (printed, corrected).
PRINTED_DEVIATIONS = {
    (294, (3,)): (21, 20),
    (294, (6,)): (21, 20),
    (294, (147,)): (17, 18),
    (294, (294,)): (17, 18),
}

# -- bielliptic classification ----------------------------------------------
# The published bielliptic pairs are the keys of WITNESS_TABLE below; each
# one's genus is its cell of the genus tables above.

# Pairs bielliptic only over Q(sqrt(-3)): every other listed pair is
# bielliptic over Q.
NON_RATIONAL_BIELLIPTIC = frozenset({(126, (63,)), (252, (4, 63))})

# -- hyperelliptic quotients (published classification), (N, gens) -> genus -

HYPERELLIPTIC_TABLE = {
    (40, (8,)): 2, (40, (5,)): 2, (44, (4,)): 2, (48, (16,)): 2,
    (48, (3,)): 2, (52, (4,)): 2, (54, (2,)): 2, (60, (20,)): 2,
    (60, (3, 4)): 2, (60, (5, 12)): 2, (72, (8,)): 2, (84, (3, 4)): 2,
    (84, (4, 21)): 2, (84, (3, 28)): 2, (84, (7, 12)): 2, (90, (5, 9)): 2,
    (90, (9, 10)): 2, (90, (2, 45)): 2, (90, (5, 18)): 2, (100, (4,)): 2,
    (120, (8, 15)): 2, (120, (24, 40)): 2, (126, (2, 63)): 2,
    (126, (14, 18)): 2, (132, (4, 11)): 2, (140, (4, 35)): 2,
    (150, (6, 50)): 2, (156, (4, 39)): 2,
    (56, (8,)): 3, (60, (4,)): 3, (60, (60,)): 3, (63, (9,)): 3,
    (72, (9,)): 3, (120, (5, 24)): 3, (126, (7, 9)): 3, (126, (9, 14)): 3,
    (60, (12,)): 4, (168, (24, 56)): 4,
    (92, (4,)): 5,
}

# -- published fixed-point tables (golden data for three levels) ------------

FIX_TABLE_120 = {
    "w8": 0, "w3": 0, "w5": 0, "w24": 8, "w40": 0, "w15": 16, "w120": 8,
    "V2": 0, "V2*w8": 0, "V2*w3": 8, "V2*w5": 0, "V2*w24": 0, "V2*w40": 16,
    "V2*w15": 8, "V2*w120": 0,
}

FIX_TABLE_252 = {
    "w4": 8, "w9": 0, "w7": 0, "w36": 0, "w28": 0, "w63": 24, "w252": 8,
    "V3": 0, "V3*w4": 0, "V3*w9": 0, "V3*w7": 24, "V3*w36": 0, "V3*w28": 8,
    "V3*w63": 24, "V3*w252": 8,
}

FIX_TABLE_176 = {
    "w16": 0, "w11": 0, "w176": 12,
    "V2": 0, "V2*w16": 4, "V2*w11": 12, "V2*w176": 24,
}

# -- the published bielliptic pairs -----------------------------------------
# (N, gens) -> (families the published bielliptic involutions belong to,
#               isogeny-class labels of the published elliptic quotients),
# one row for each of the 124 pairs.  "red" means the witness lives at the
# lower level after the w4-reduction.

WITNESS_TABLE = {
    # at the levels where the full quotient is elliptic
    # (screening.GATE_GENUS1), every index-2 subgroup of genus >= 2
    (40, (8,)): (("al",), ("20a", "40a")),
    (40, (5,)): (("al", "v2", "s2", "s2c"), ("20a",)),
    (48, (16,)): (("al",), ("24a", "48a")),
    (48, (3,)): (("al", "v2", "s2", "s2c"), ("24a",)),
    (52, (4,)): (("al",), ("26a", "26b")),
    (52, (13,)): (("al",), ("26b",)),
    (63, (9,)): (("al",), ("21a",)),
    (63, (7,)): (("al",), ("21a",)),
    (68, (4,)): (("al",), ("34a",)),
    (68, (17,)): (("al",), ("34a",)),
    (72, (8,)): (("al",), ("36a", "72a")),
    (72, (9,)): (("al",), ("36a",)),
    (75, (3,)): (("al",), ("15a",)),
    (75, (25,)): (("al",), ("15a",)),
    (76, (19,)): (("al",), ("38b",)),
    (76, (4,)): (("al",), ("38b",)),
    (80, (16,)): (("al",), ("20a",)),
    (80, (5,)): (("al",), ("20a",)),
    (96, (32,)): (("al",), ("24a",)),
    (96, (3,)): (("al",), ("24a",)),
    (98, (49,)): (("al",), ("14a",)),
    (98, (2,)): (("al",), ("14a",)),
    (99, (11,)): (("al",), ("99a",)),
    (99, (9,)): (("al",), ("99a",)),
    (100, (4,)): (("al",), ("50a", "50b")),
    (100, (25,)): (("al",), ("50b",)),
    (108, (4,)): (("al",), ("54b",)),
    (108, (27,)): (("al",), ("54b",)),
    (124, (31,)): (("al",), ("62a",)),
    (124, (4,)): (("al",), ("62a",)),
    (188, (47,)): (("al",), ("94a",)),
    (188, (4,)): (("al",), ("94a",)),
    (84, (3, 4)): (("al",), ("42a", "14a")),
    (84, (4, 21)): (("al",), ("42a", "14a")),
    (84, (3, 28)): (("al",), ("42a", "14a")),
    (84, (7, 12)): (("al",), ("42a", "21a")),
    (84, (4, 7)): (("al",), ("42a",)),
    (84, (3, 7)): (("al",), ("42a",)),
    (84, (12, 21)): (("al",), ("42a",)),
    (90, (5, 9)): (("al",), ("30a", "90b")),
    (90, (2, 45)): (("al",), ("30a", "15a")),
    (90, (9, 10)): (("al",), ("30a", "15a")),
    (90, (5, 18)): (("al",), ("30a", "45a")),
    (90, (2, 9)): (("al",), ("30a",)),
    (90, (2, 5)): (("al",), ("30a",)),
    (90, (10, 18)): (("al",), ("30a",)),
    (120, (8, 15)): (("al",), ("20a", "40a")),
    (120, (15, 40)): (("al",), ("20a", "120a")),
    (120, (3, 5)): (("al",), ("20a",)),
    (120, (5, 24)): (("al",), ("20a",)),
    (120, (3, 8)): (("al",), ("20a",)),
    (120, (3, 40)): (("al",), ("20a",)),
    (120, (5, 8)): (("al",), ("20a",)),
    (126, (2, 63)): (("al",), ("21a", "14a")),
    (126, (14, 18)): (("al",), ("21a", "126a")),
    (126, (7, 9)): (("al",), ("21a",)),
    (126, (9, 14)): (("al",), ("21a",)),
    (126, (2, 7)): (("al",), ("21a",)),
    (126, (7, 18)): (("al",), ("21a",)),
    (126, (2, 9)): (("al",), ("21a",)),
    (132, (4, 11)): (("al",), ("66b", "66c")),
    (132, (3, 44)): (("al",), ("66b",)),
    (132, (11, 12)): (("al",), ("66b",)),
    (132, (3, 11)): (("al",), ("66b",)),
    (132, (4, 33)): (("al",), ("66b",)),
    (132, (12, 33)): (("al",), ("66b",)),
    (132, (3, 4)): (("al",), ("66b",)),
    (140, (4, 35)): (("al",), ("70a", "14a")),
    (140, (7, 20)): (("al",), ("70a",)),
    (140, (20, 35)): (("al",), ("70a",)),
    (140, (4, 5)): (("al",), ("70a",)),
    (140, (5, 7)): (("al",), ("70a",)),
    (140, (5, 28)): (("al",), ("70a",)),
    (140, (4, 7)): (("al",), ("70a",)),
    (150, (6, 50)): (("al",), ("15a", "150a")),
    (150, (2, 75)): (("al",), ("15a",)),
    (150, (3, 50)): (("al",), ("15a",)),
    (150, (2, 25)): (("al",), ("15a",)),
    (150, (3, 25)): (("al",), ("15a",)),
    (150, (6, 25)): (("al",), ("15a",)),
    (150, (2, 3)): (("al",), ("15a",)),
    (156, (4, 39)): (("al",), ("26b", "26a")),
    (156, (3, 13)): (("al",), ("26b",)),
    (156, (12, 39)): (("al",), ("26b",)),
    (156, (3, 4)): (("al",), ("26b",)),
    (156, (3, 52)): (("al",), ("26b",)),
    (156, (12, 13)): (("al",), ("26b",)),
    (156, (4, 13)): (("al",), ("26b",)),
    (220, (5, 11)): (("al",), ("110b",)),
    (220, (4, 55)): (("al",), ("110b",)),
    (220, (44, 55)): (("al",), ("110b",)),
    (220, (4, 11)): (("al",), ("110b",)),
    (220, (5, 44)): (("al",), ("110b",)),
    (220, (11, 20)): (("al",), ("110b",)),
    (220, (4, 5)): (("al",), ("110b",)),
    # the remaining (sporadic) pairs
    (44, (4,)): (("red",), ("11a",)),
    (60, (20,)): (("al",), ("15a", "30a")),
    (60, (3, 4)): (("red",), ("15a", "30a")),
    (56, (8,)): (("v2",), ("14a",)),
    (60, (4,)): (("al", "red"), ("30a", "15a")),
    (60, (3,)): (("al",), ("20a", "15a")),
    (60, (5,)): (("al",), ("20a", "30a")),
    (112, (7,)): (("s2", "s2c"), ("56a",)),
    (168, (3, 56)): (("v2",), ("14a", "24a")),
    (84, (4,)): (("red",), ("21a",)),
    (88, (11,)): (("s2", "s2c"), ("44a",)),
    (90, (9,)): (("v3",), ("15a",)),
    (117, (9,)): (("v3",), ("39a",)),
    (120, (15,)): (("v2", "s2", "s2c"), ("24a", "20a")),
    (126, (63,)): (("v3",), ("14a",)),
    (168, (7, 8)): (("v2",), ("21a",)),
    (168, (7, 24)): (("v2",), ("21a",)),
    (180, (4, 9)): (("red",), ("15a",)),
    (184, (23,)): (("s2", "s2c"), ("92a",)),
    (252, (4, 63)): (("v3",), ("14a",)),
    (104, (8,)): (("v2",), ("26a",)),
    (168, (3, 8)): (("v2",), ("14a",)),
    (120, (24,)): (("v2",), ("15a",)),
    (136, (8,)): (("v2",), ("17a",)),
    (252, (7, 9)): (("v3",), ("36a",)),
    (126, (9,)): (("v3",), ("14a",)),
    (171, (9,)): (("v3",), ("19a",)),
    (252, (4, 9)): (("v3",), ("14a",)),
    (176, (16,)): (("v2",), ("11a",)),
}

# -- default elliptic-curve table -------------------------------------------
# label conductor rank; one row for each curve `WITNESS_TABLE` names, as in
# the standard curve database.  `atlas.quadratic_points` reads the ranks.

EC_TABLE_TEXT = """\
# label conductor rank
11a 11 0
14a 14 0
15a 15 0
17a 17 0
19a 19 0
20a 20 0
21a 21 0
24a 24 0
26a 26 0
26b 26 0
30a 30 0
34a 34 0
36a 36 0
38b 38 0
39a 39 0
40a 40 0
42a 42 0
44a 44 0
45a 45 0
48a 48 0
50a 50 0
50b 50 0
54b 54 0
56a 56 0
62a 62 0
66b 66 0
66c 66 0
70a 70 0
72a 72 0
90b 90 0
92a 92 0
94a 94 0
99a 99 1
110b 110 0
120a 120 0
126a 126 0
150a 150 0
"""

# -- adjudicated verdicts ----------------------------------------------------
# Pairs the mechanical rules leave open; each verdict carries the method that
# settles it in the source classification.  Format: N;generators;verdict;citation

ADJUDICATIONS_TEXT = """\
# N;generators;verdict;citation
54;w2;not-bielliptic;genus-2 automorphism group is Z/2 (Jacobian 27a x 54a)
60;w5,w12;not-bielliptic;genus-2 automorphism group is Z/2 (Jacobian 20a x 30a)
84;w3;not-bielliptic;Petri quadric symmetry test on the canonical model
84;w12;not-bielliptic;Petri quadric symmetry test on the canonical model
88;w8;not-bielliptic;Petri quadric/cubic symmetry test on the canonical model
90;w5;not-bielliptic;Petri quadric symmetry test; no elliptic factor admits the sign flip
90;w45;not-bielliptic;Petri quadric symmetry test over Q and Q(sqrt(-3))
116;w29;not-bielliptic;S3 symmetry forces a rational 3-torsion elliptic quotient; none exists
126;w14;not-bielliptic;V3-twist isomorphic to the Fricke quotient, known non-bielliptic
135;w5;not-bielliptic;Petri quadric symmetry test on the canonical model
135;w27;not-bielliptic;Petri quadric symmetry test on the canonical model
147;w3;not-bielliptic;Petri symmetry test; only an inert conductor-49 twist appears
147;w49;not-bielliptic;Petri quadric symmetry test on the canonical model
153;w9;not-bielliptic;Petri quadric symmetry test on the canonical model
153;w17;not-bielliptic;V3-twist isomorphic to the Fricke quotient, known non-bielliptic
207;w23;not-bielliptic;V3-twist isomorphic to the Fricke quotient, known non-bielliptic
180;w4,w5;not-bielliptic;reduces to the level-90 w5 quotient (Petri symmetry test)
180;w4,w45;not-bielliptic;reduces to the level-90 w45 quotient (Petri symmetry test)
180;w5,w9;not-bielliptic;Petri/Jacobian analysis with quadratic twists
180;w9,w20;not-bielliptic;Petri/Jacobian analysis with quadratic twists
180;w5,w36;not-bielliptic;Petri/Jacobian analysis with quadratic twists
180;w20,w36;not-bielliptic;Petri/Jacobian analysis with quadratic twists
198;w9,w11;not-bielliptic;isomorphic to the level-396 full quotient, known non-bielliptic
198;w2,w9;not-bielliptic;Petri/Jacobian analysis with quadratic twists
198;w2,w11;not-bielliptic;Petri/Jacobian analysis with quadratic twists
198;w2,w99;not-bielliptic;Petri/Jacobian analysis with quadratic twists
198;w9,w22;not-bielliptic;Petri/Jacobian analysis with quadratic twists
198;w11,w18;not-bielliptic;Petri/Jacobian analysis with quadratic twists
198;w18,w22;not-bielliptic;Petri/Jacobian analysis with quadratic twists
204;w3,w17;not-bielliptic;Petri/Jacobian analysis with quadratic twists
204;w12,w17;not-bielliptic;Petri/Jacobian analysis with quadratic twists
204;w12,w51;not-bielliptic;Petri/Jacobian analysis with quadratic twists
204;w3,w68;not-bielliptic;trigonal of genus 5, so Castelnuovo forbids a bielliptic map
204;w4,w51;not-bielliptic;reduces to the level-102 quotient, settled in the squarefree classification
276;w3,w23;not-bielliptic;Petri/Jacobian analysis with quadratic twists
276;w12,w23;not-bielliptic;Petri/Jacobian analysis with quadratic twists
276;w4,w23;not-bielliptic;reduces to the level-138 quotient, settled in the squarefree classification
260;w4,w65;not-bielliptic;reduces to the level-130 quotient, settled in the squarefree classification
315;w5,w9;not-bielliptic;F16 point count exceeds twice the elliptic-curve maximum
315;w9,w35;not-bielliptic;F16 point count exceeds twice the elliptic-curve maximum
315;w7,w45;not-bielliptic;supersingular j=0 scan leaves no admissible elliptic quotient
315;w45,w63;not-bielliptic;supersingular j=0 scan leaves no admissible elliptic quotient
315;w5,w7;not-bielliptic;V3-twist isomorphic to the (7,45) quotient at the same level
315;w5,w63;not-bielliptic;V3-twist isomorphic to the (45,63) quotient at the same level
380;w5,w19;not-bielliptic;supersingular j=0 scan plus parametrization degrees 24 and 240
380;w20,w76;not-bielliptic;supersingular j=0 scan plus parametrization degrees 24 and 240
"""
