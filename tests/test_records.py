"""The four frozen value records: construction, repr, equality, hashing, immutability.

PrecisionContext, IndexSequence, DigitSet and StepSchedule are compared,
hashed and printed by their fields in declaration order, only against
their own class, and refuse assignment after construction.  A sequence
hashes by its rule and the length and ends of its explicit list.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cfdim import DigitSet, DomainError, IndexSequence, PrecisionContext, StepSchedule

# (record, the same record built by keywords, its repr, a different record of its class)
_CASES = [
    (PrecisionContext(),
     PrecisionContext(working_digits=50),
     "PrecisionContext(target_abs_tol=1e-12, working_digits=50)",
     PrecisionContext(1e-12, 60)),
    (IndexSequence("arith", (2, 2)),
     IndexSequence(kind="arith", params=(2, 2)),
     "IndexSequence(kind='arith', params=(2, 2), values=())",
     IndexSequence("arith", (2, 3))),
    (IndexSequence("explicit", (), [1, 3, 7]),
     IndexSequence(values=(1, 3, 7), kind="explicit"),
     "IndexSequence(kind='explicit', params=(), values=(1, 3, 7))",
     IndexSequence("explicit", (), [1, 3])),
    (DigitSet("square"),
     DigitSet(kind="square"),
     "DigitSet(kind='square', params=(), values=())",
     DigitSet("explicit", (), (1, 2))),
    (StepSchedule(Fraction(1, 10), None, [0, 5], [1, 3], 100),
     StepSchedule(eps=Fraction(1, 10), c1=None, thresholds=(0, 5), breakpoints=(1, 3),
                  horizon=100),
     "StepSchedule(eps=Fraction(1, 10), c1=None, thresholds=(0, 5), breakpoints=(1, 3), "
     "horizon=100)",
     StepSchedule(None, Fraction(1, 3), (2,), (4,), 9)),
]
_IDS = ["context", "sequence", "explicit", "digit-set", "schedule"]


@pytest.mark.parametrize("record, by_keyword, text, other", _CASES, ids=_IDS)
def test_records_compare_hash_and_print_by_their_fields(record, by_keyword, text, other):
    assert repr(record) == repr(by_keyword) == text
    assert record == by_keyword and not record != by_keyword
    assert hash(record) == hash(by_keyword)
    assert record != other and len({record, by_keyword, other}) == 2
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is type(record) and again == record


@pytest.mark.parametrize("record, by_keyword, text, other", _CASES, ids=_IDS)
def test_records_refuse_assignment_and_deletion(record, by_keyword, text, other):
    name = text[text.index("(") + 1:text.index("=")]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value


def test_an_explicit_list_hashes_by_its_length_and_ends():
    # lists that differ only inside share a hash but stay unequal
    inner = IndexSequence("explicit", (), (1, 4, 9))
    other = IndexSequence("explicit", (), (1, 5, 9))
    assert hash(inner) == hash(other) and inner != other and len({inner, other}) == 2
    assert hash(inner) != hash(IndexSequence("explicit", (), (1, 4, 10)))


def test_equality_holds_only_within_one_class():
    seq, digits = IndexSequence("square"), DigitSet("square")
    assert seq != digits and digits != seq
    assert (seq.kind, seq.params, seq.values) == (digits.kind, digits.params, digits.values)


@pytest.mark.parametrize("build, message", [
    (lambda: PrecisionContext(target_abs_tol=0), "target_abs_tol must be positive"),
    (lambda: PrecisionContext(working_digits=29),
     "working_digits must be an integer >= 30, got 29"),
    (lambda: IndexSequence(kind="cube"), "unknown rule kind 'cube'"),
    (lambda: IndexSequence("explicit", (), [3, 2]),
     "explicit list must be strictly increasing (2 after 3)"),
    (lambda: DigitSet("arith", (2, 2)),
     "a digit set progression needs gap 1 (all, geq:M), got arith:2,2"),
    (lambda: StepSchedule(None, None, (), (), 1), "exactly one of eps and c1 must be set"),
    (lambda: StepSchedule(Fraction(1, 10), None, [0], [1, 2], 5),
     "thresholds and breakpoints must have equal length"),
], ids=["tol", "digits", "kind", "explicit", "gap", "mode", "lengths"])
def test_records_validate_on_construction(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message
