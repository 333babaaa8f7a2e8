"""Exception types shared across the package.

Every checked failure mode has a named class so callers can catch precisely;
witness data (the offending element, triple, chain, ...) rides on attributes.
"""

from __future__ import annotations


class QuandleError(Exception):
    """Base class for all library errors."""


class SizeGuardExceeded(QuandleError):
    """The one refusal of every size limit, raised by ``check`` before the
    work: needed counts what the work would take, guard is the limit."""

    def __init__(self, needed: int, guard: int, message: str):
        self.needed, self.guard = needed, guard
        super().__init__(message)

    @classmethod
    def check(cls, needed: int, guard: int, message: str):
        if needed > guard:
            raise cls(needed, guard, message)


# ---------------------------------------------------------------- validation

class ValidationError(QuandleError):
    """An operation table violates a rack or quandle axiom."""


class OutOfRangeEntry(ValidationError):
    def __init__(self, x: int, y: int, value: int, order: int):
        self.x, self.y, self.value, self.order = x, y, value, order
        super().__init__(
            f"entry table[{x}][{y}] = {value} outside 0..{order - 1}")


class ColumnNotBijective(ValidationError):
    def __init__(self, y: int):
        self.y = y
        super().__init__(f"column {y} is not a permutation")


class SelfDistributivityFails(ValidationError):
    def __init__(self, a: int, b: int, c: int):
        self.a, self.b, self.c = a, b, c
        super().__init__(
            f"(a*b)*c != (a*c)*(b*c) at (a,b,c) = ({a},{b},{c})")


class IdempotencyFails(ValidationError):
    def __init__(self, x: int):
        self.x = x
        super().__init__(f"x*x != x at x = {x}")


class InnQuandleIllDefined(QuandleError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"translation-image operation is ill defined, witness {witness}")


# --------------------------------------------------------------------- words

class WordError(QuandleError):
    pass


class EmptyWord(WordError):
    pass


class NonLetterCharacter(WordError):
    def __init__(self, ch: str):
        self.ch = ch
        super().__init__(f"word characters must be a-z, got {ch!r}")


# -------------------------------------------------------------------- chains

class IndexOutOfRange(QuandleError):
    pass


class IdentityNotSatisfied(QuandleError):
    def __init__(self, word):
        self.word = word
        super().__init__(f"table does not satisfy the identity x{word} = x")


class NotMedial(QuandleError):
    pass


class DegreeTooSmall(QuandleError):
    pass


class SubcomplexClosureViolated(QuandleError):
    def __init__(self, chain):
        self.chain = chain
        super().__init__(
            "boundary left the subcomplex span; offending chain attached")


class DegreeMismatch(QuandleError):
    pass


# ----------------------------------------------------------------- cocycles

class InvalidCocycle(QuandleError):
    pass


class BaseDoesNotSatisfy(QuandleError):
    def __init__(self, word):
        self.word = word
        super().__init__(f"base table does not satisfy x{word} = x")


# ------------------------------------------------------------ constructions

class NotAUnit(QuandleError):
    pass


class NotAnAutomorphism(QuandleError):
    pass


class NotConnected(QuandleError):
    pass


class NotPrime(QuandleError):
    def __init__(self, p: int):
        self.p = p
        super().__init__(f"{p} is not prime")


class PNotGreaterThanN(QuandleError):
    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        super().__init__(f"need prime p > n, got p = {p}, n = {n}")


class ReducibleModulusAllowed(UserWarning):
    """Warning only: the quotient modulus is reducible, the ring is not a field."""


# --------------------------------------------------------------------- shell

class ParseError(QuandleError):
    def __init__(self, message: str, line: int, column: int | None = None):
        self.line, self.column = line, column
        where = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{message} ({where})")


class MissingDataset(QuandleError):
    pass
