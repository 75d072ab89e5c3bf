"""The record classes: plain classes whose `__eq__`, `__hash__` and
`__repr__` come from the field names in `__match_args__`, through
`ntheory.Record` and `ntheory.Frozen`, and behave as the dataclasses they
replace; and a package import that leaves `dataclasses` out."""

import os
import subprocess
import sys

import pytest

from bielliptic.atlas import ECRecord, PairRecord, Witness
from bielliptic.errors import IntegrityError
from bielliptic.involutions import ExtInvolution, quotient_genus_hurwitz
from bielliptic.ntheory import ALSubgroup, Factorization, replace
from bielliptic.screening import RuleResult, StarGate

E = ExtInvolution(72, (0, 1), 0, 1)
R = RuleResult("castelnuovo", "cite", "consistent", (3, 2, 0))

# (a constructor call twice over, its repr, one field change for `replace`)
FROZEN = [
    (lambda: Factorization(12, ((2, 2), (3, 1))),
     "Factorization(n=12, factors=((2, 2), (3, 1)))", {"n": 20, "factors": ((2, 2), (5, 1))}),
    (lambda: ExtInvolution(72, (0, 1), 0, 1),
     "ExtInvolution(level=72, word2=(0, 1), e3=0, tail=1)", {"tail": 9}),
    (lambda: StarGate(558, "fails-gate", None),
     "StarGate(N=558, kind='fails-gate', star_genus=None)", {"star_genus": 7}),
    (lambda: RuleResult("castelnuovo", "cite", "consistent", (3, 2, 0)),
     "RuleResult(rule_id='castelnuovo', citation='cite', verdict='consistent', "
     "inputs=(3, 2, 0), detail='')", {"detail": "why"}),
    (lambda: Witness(44, E, 3, "Q"),
     "Witness(level=44, element=ExtInvolution(level=72, word2=(0, 1), e3=0, tail=1), "
     "mask=3, field='Q', chain=())",
     {"chain": ((22, "<w2>"),)}),
    (lambda: ECRecord("11a", 11, 0), "ECRecord(label='11a', conductor=11, rank=0)", {"rank": 1}),
]


@pytest.mark.parametrize("make, text, change", FROZEN)
def test_frozen_record(make, text, change):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == text
    assert a != text and (a == text) is False
    name = next(iter(change))
    with pytest.raises(AttributeError):
        setattr(a, name, change[name])
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == b
    changed = replace(a, **change)
    assert type(changed) is type(a)
    assert all(getattr(changed, k) == v for k, v in change.items())
    assert changed is not a
    with pytest.raises(TypeError):
        replace(a, no_such_field=1)


def test_records_of_different_classes_differ():
    # the rows' field tuples differ, and the class check keeps two records
    # of different classes apart even where their fields would compare
    records = [make() for make, _, _ in FROZEN]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j), (a, b)
            assert (a != b) is (i != j), (a, b)
    assert ECRecord("11a", 11, 0) != StarGate("11a", 11, 0)
    assert StarGate("11a", 11, 0) != ECRecord("11a", 11, 0)


def test_pair_record():
    sub = ALSubgroup(44, (4,))
    w = Witness(44, E, 3, "Q", ((22, "<w2>"),))

    def make():
        return PairRecord(44, sub, 4, "bielliptic-confirmed", True, w, "Q", (R,),
                          ("not-bielliptic", "x"), "finite")

    a, b = make(), make()
    assert a == b and a != replace(a, genus=5)
    assert repr(PairRecord(44, sub, 4, "excluded", False)) == (
        f"PairRecord(N=44, subgroup={sub!r}, genus=4, status='excluded', "
        "hyperelliptic=False, witness=None, field=None, rule_trace=(), "
        "adjudication=None, quadratic_points=None)"
    )
    # mutable, as `classify_all` sets the quadratic points, so not hashable
    a.quadratic_points = "infinite"
    assert a != b
    with pytest.raises(TypeError):
        hash(a)
    copy = replace(b, status="excluded", witness=None)
    assert (copy.status, copy.witness, copy.rule_trace) == ("excluded", None, (R,))
    assert b.status == "bielliptic-confirmed"


def test_factorization_integrity_check():
    with pytest.raises(IntegrityError, match="does not multiply out"):
        Factorization(12, ((2, 2), (5, 1)))
    with pytest.raises(IntegrityError):
        replace(Factorization(12, ((2, 2), (3, 1))), n=13)


def test_cached_properties_on_frozen_records():
    f = Factorization(360, ((2, 3), (3, 2), (5, 1)))
    assert (f.omega, f.is_squarefree) == (3, False)
    v = ExtInvolution.v3(90, 10)
    assert (v.kind, v.name) == ("v3", "V3*w10")
    assert quotient_genus_hurwitz(90, ["w9", "V3*w10"]) == 1
    # a cached value sits in the instance dict beside the fields; equality,
    # the hash and the repr read only the fields named in __match_args__
    for read, fresh in ((f, Factorization(360, ((2, 3), (3, 2), (5, 1)))),
                        (v, ExtInvolution.v3(90, 10))):
        assert vars(read).keys() > vars(fresh).keys()
        assert read == fresh and fresh == read and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) and len({read, fresh}) == 1


def test_import_leaves_dataclasses_out():
    # `dataclasses` brings `inspect`, `ast`, `dis` and `tokenize` with it, and
    # building its classes costs more than the written-out methods; a fresh
    # process would pay for both on every start.  `fractions` brings
    # `decimal` and `numbers`, and `json.encoder` all of `json`.
    code = (
        "import sys\n"
        "from bielliptic import atlas, cli\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'numbers', 'json'}"
        " & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert out.stdout.strip() == "[]"
