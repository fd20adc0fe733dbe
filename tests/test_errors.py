"""errors.record and errors.check_fields: the rules every reader of an input record shares."""

import dataclasses

import numpy as np
import pytest

from morphmix import errors
from morphmix.errors import BadFormat, record


@dataclasses.dataclass(frozen=True)
class Rec:
    name: str
    rate: float = 1.0
    count: int = 0

    def __post_init__(self):
        errors.check_fields(self)
        if self.count < 0:
            raise errors.EmptyInput("count must be >= 0")


def test_record_returns_what_make_builds():
    assert record("in.jsonl:4", Rec, "a", rate=2.0) == Rec("a", 2.0)


@pytest.mark.parametrize("fields, cause, text", [
    ({"name": "a", "extra": 1}, TypeError,
     "Rec.__init__() got an unexpected keyword argument 'extra'"),
    ({}, TypeError, "Rec.__init__() missing 1 required positional argument: 'name'"),
    ({"name": "a", "rate": float("nan")}, ValueError, "rate must be finite, got nan"),
    ({"name": "a", "count": -1}, errors.EmptyInput, "count must be >= 0"),
])
def test_record_names_where_a_rejected_record_came_from(fields, cause, text):
    with pytest.raises(BadFormat) as info:
        record("in.jsonl:4", Rec, **fields)
    assert str(info.value) == f"in.jsonl:4: {text}"
    assert type(info.value.__cause__) is cause


def test_record_takes_fields_named_like_its_own_parameters():
    # where and make are positional-only, so they cannot clash with a record's keys
    with pytest.raises(BadFormat, match="^w: .*unexpected keyword argument 'make'"):
        record("w", Rec, name="a", make=1)


def test_record_lets_a_fault_of_the_program_through():
    def broken():
        return {}["key"]

    with pytest.raises(KeyError):
        record("w", broken)


@pytest.mark.parametrize("value, error, text", [
    ("x", TypeError, "rate must be float, got 'x'"),
    (None, TypeError, "rate must be float, got None"),
    (True, TypeError, "rate must be float, got True"),
    (float("inf"), ValueError, "rate must be finite, got inf"),
    (10 ** 400, ValueError, "rate must be finite, got 1000"),  # past the float range
])
def test_check_fields_names_a_float_field_that_is_no_finite_number(value, error, text):
    with pytest.raises(error, match=f"^{text}"):
        Rec("a", value)


def test_check_fields_takes_any_finite_real_number_as_a_float():
    assert Rec("a", 2).rate == 2
    assert Rec("a", np.float32(0.5)).rate == 0.5
    assert Rec("a", 1.7976931348623157e308).rate == 1.7976931348623157e308
