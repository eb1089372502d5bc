"""Exception types shared across the package."""


class TorusHeckeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TorusHeckeError):
    """A field descriptor or input value failed a consistency check."""


class GeneratorError(TorusHeckeError):
    """A claimed multiplicative generator does not generate the unit group."""


class CharacterUndefined(TorusHeckeError):
    """No character of the requested order exists (p does not divide q - 1)."""


class RamifiedOrIndexPrime(TorusHeckeError):
    """The rational prime divides the polynomial discriminant.

    Such primes are excluded from factorization and from all prime scans.
    """


class CapExceeded(TorusHeckeError):
    """A configured enumeration or size cap was exceeded."""


class TorsionObstruction(TorusHeckeError):
    """The kernel of units modulo the congruence condition has torsion.

    The downstream constructions require a free kernel, so the
    configuration is refused rather than silently truncated.
    """


class BudgetShortfall(TorusHeckeError):
    """A prime scan exhausted its budget before reaching its target rank."""


# A bounded search that ran out before the answer was determined: exit 2.
RAN_OUT = (BudgetShortfall, CapExceeded)
