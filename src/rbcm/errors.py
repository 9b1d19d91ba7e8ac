"""Exception hierarchy shared by all modules.

Every domain-level failure raises a subclass of DomainError so the CLI can
map it to exit status 1 and print the error name.
"""


class DomainError(Exception):
    """Base class for all expected domain failures."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NotAUnit(DomainError):
    """Inversion of a residue that shares a factor with the modulus."""


class NotCoprime(DomainError):
    """Arguments were required to be coprime but are not."""


class ModulusMismatch(DomainError):
    """Operation mixing values over different moduli."""


class NonUnitLeading(DomainError):
    """Polynomial division by a divisor whose leading coefficient is not a unit."""


class NotInBaseField(DomainError):
    """A product expected to have prime-field coefficients does not."""


class NotSimpleFactor(DomainError):
    """Lifting requested for a factor of multiplicity > 1."""


class TooLarge(DomainError):
    """An exhaustive computation exceeds its size budget."""


class DuplicatePrime(DomainError):
    """Cross-prime composition received two components for one prime."""


class ComponentNotAdmissible(DomainError):
    """A composition component fails its admissibility requirements."""


class NotAdmissible(DomainError):
    """Map construction from an ideal that is not admissible."""

    def __init__(self, clause: str, message: str = ""):
        super().__init__(message or clause)
        self.clause = clause
        self.detail = message


class DegenerateOmega(DomainError):
    """Signed generator entries collide; no valid type I rotation exists."""


class TypeMismatch(DomainError):
    """Comparison of maps of different types, or a map on another group than asked for."""


class InvariantViolation(DomainError):
    """A certificate of a definitional property failed."""


class ReconciliationMismatch(DomainError):
    """A cross-check report has instances that are not ok."""


def require(cond: bool, message: str) -> None:
    """Raise InvariantViolation unless cond holds; unlike assert, not stripped by -O."""
    if not cond:
        raise InvariantViolation(message)
