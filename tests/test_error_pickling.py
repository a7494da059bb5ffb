"""Every exception type of ``fibquat.errors`` survives pickle.

A pickled error is rebuilt from its ``args``, so an error whose message is
built from its fields must keep the fields, not the message, in ``args``:
a copy keeps its type, its ``args``, its message and its fields.
"""

import inspect
import pickle

import pytest

from fibquat import Rational, errors

EXAMPLES = {
    errors.FibquatError: ("base error",),
    errors.AlgebraMismatchError: ("cannot combine H(1, 1) and H(2, 1)",),
    errors.NotInvertibleError: (Rational(0),),
    errors.DomainError: ("binom requires k >= 0, got -1",),
    errors.ConsistencyError: ("growth indicator routes disagree",),
    errors.PrecisionGuardError: ("index 71 exceeds the guard 70",),
    errors.SeriesMismatchError: (3, 5),
    errors.IndicatorDegenerateError: ("growth indicator vanishes",),
    errors.ScanExhaustedError: ("no sign threshold within [0, 50]",),
    errors.UnknownIdentityError: ("THM_9_9",),
}


def test_every_error_type_has_an_example():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BaseException)}
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_round_trip_keeps_type_args_and_message(cls):
    error = cls(*EXAMPLES[cls])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert copy.args == error.args == EXAMPLES[cls]
    assert str(copy) == str(error)


def test_the_field_errors_keep_their_fields_and_text():
    error = pickle.loads(pickle.dumps(errors.NotInvertibleError(Rational(0))))
    assert error.norm == 0
    assert str(error) == "element is not invertible: norm is 0"
    error = pickle.loads(pickle.dumps(errors.SeriesMismatchError(3, 5)))
    assert (error.degree, error.coefficient) == (3, 5)
    assert str(error) == "nonzero residual at degree 3: 5"
