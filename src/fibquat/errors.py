"""Exception types shared across the package, and ``_shown``, which puts a
value into their messages.

An error that carries fields passes them, and only them, to
``Exception.__init__`` and builds its message in ``__str__``, so that
``args`` is what the constructor took and a pickled copy, rebuilt as
``type(error)(*error.args)``, reads the same.
"""


def _shown(value):
    """The text of ``f"{value}"`` for an error message, or a stand-in where the
    value holds an integer too long for str() under the interpreter's digit
    limit, so that the error raised is still the library's own."""
    try:
        return f"{value}"
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


class FibquatError(Exception):
    """Base class for all fibquat errors."""


class AlgebraMismatchError(FibquatError):
    """Raised when combining quaternions from algebras with different parameters."""


class NotInvertibleError(FibquatError):
    """Raised when inverting an element of zero norm.

    The offending norm is kept on ``.norm``.
    """

    def __init__(self, norm):
        super().__init__(norm)
        self.norm = norm

    def __str__(self):
        return f"element is not invertible: norm is {_shown(self.norm)}"


class DomainError(FibquatError, ValueError):
    """An argument is outside the operation's domain (e.g. binom with k > n)."""


class ConsistencyError(FibquatError):
    """An internal cross-check disagreed.  Never expected to fire."""


class PrecisionGuardError(FibquatError):
    """An index exceeds the range where double precision meets the tolerance."""


class SeriesMismatchError(FibquatError):
    """A truncated series product had a nonzero residual coefficient."""

    def __init__(self, degree, coefficient):
        super().__init__(degree, coefficient)
        self.degree = degree
        self.coefficient = coefficient

    def __str__(self):
        return f"nonzero residual at degree {self.degree}: {_shown(self.coefficient)}"


class IndicatorDegenerateError(FibquatError):
    """The growth indicator is zero, so no sign threshold exists."""


class ScanExhaustedError(FibquatError):
    """No valid threshold index was found within the scanned range."""


class UnknownIdentityError(FibquatError, KeyError):
    """Requested audit id is not in the registry; the id is its one argument."""

    def __str__(self):
        # KeyError's own str() is the bare repr of the id
        return f"unknown audit id {self.args[0]!r} (fibquat audit --list shows the ids)"
