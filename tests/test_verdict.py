import pytest

from spanalg import FAILS, HOLDS, UNKNOWN, Verdict, combine


def test_constructors_and_flags():
    assert Verdict.yes().holds
    assert Verdict.no(witness=3).fails
    assert Verdict.no(witness=3).witness == 3
    assert Verdict.maybe(reason="bound").unknown


def test_truthiness_is_rejected():
    with pytest.raises(TypeError):
        bool(Verdict.yes())


def test_combine_dominance():
    assert combine([Verdict.yes(), Verdict.yes()]).outcome == HOLDS
    assert combine([Verdict.yes(), Verdict.maybe()]).outcome == UNKNOWN
    assert combine([Verdict.maybe(), Verdict.no(witness=1)]).outcome == FAILS
    # fails wins regardless of order
    assert combine([Verdict.no(witness=1), Verdict.maybe()]).outcome == FAILS


def test_combine_keeps_first_failure_witness():
    v = combine([Verdict.yes(), Verdict.no(witness="w1"), Verdict.no(witness="w2")])
    assert v.witness == "w1"


def test_combine_empty_holds():
    assert combine([]).holds


def test_bare_yes_and_no_are_shared():
    assert Verdict.yes() is Verdict.yes()
    assert Verdict.no() is Verdict.no()
    assert Verdict.yes() is not Verdict.no()
    assert Verdict.yes().holds and Verdict.no().fails


@pytest.mark.parametrize("make", [Verdict.yes, Verdict.no])
def test_a_witness_or_reason_gives_a_new_verdict(make):
    bare = make()
    for v in (make(witness=3), make(reason="r"), make(3, "r")):
        assert v is not bare
        assert v.outcome == bare.outcome
    assert make(witness=3) is not make(witness=3)
    assert make(reason="r").reason == "r"


def test_bad_outcome_is_rejected():
    with pytest.raises(ValueError):
        Verdict("bogus")
