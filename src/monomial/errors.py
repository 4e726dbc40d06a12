"""Shared exception types.

Every refusal the library can produce is a subclass of MonomialError, so
callers (in particular the CLI) can distinguish "the math said no" from a
genuine bug.
"""


class MonomialError(Exception):
    """Base class for all structured refusals."""


# --- group-core ---------------------------------------------------------


class ParseError(MonomialError):
    """Group file (or other text payload) does not parse."""


class NotAGroup(MonomialError):
    """A group axiom failed; the message names the failing triple/element."""


class NotSolvable(MonomialError):
    """Derived series does not reach the trivial subgroup."""


class NotNormal(MonomialError):
    """Quotient requested by a non-normal subgroup."""


class NotASubgroup(MonomialError):
    """Subset is not a subgroup / not contained where required."""


class DomainMismatch(MonomialError):
    """Objects on different groups or subgroups were combined."""


class NotMonomial(MonomialError):
    """The group is not an M-group: the irreducible characters cannot all
    be found among inductions of 1-dimensional characters of subgroups."""


# --- brauer-ring --------------------------------------------------------


class CNotAbelianNormal(MonomialError):
    """A subgroup that must be abelian (normal too, for a projector) is
    not."""


class NoSolution(MonomialError):
    """Integer system has no solution.  For Brauer presentations this
    signals a bug or a violated precondition, never expected behaviour."""


class CertificateFailed(MonomialError):
    """An exact check behind a verdict failed; carries the offending object
    (for the kernel-lattice verdict, the relation) as its witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# --- type3 --------------------------------------------------------------


class NotMaximal(MonomialError):
    """H is not a maximal subgroup."""


class HNormal(MonomialError):
    """H is normal, so (G, H) is not a type-III configuration."""


class TooLarge(MonomialError):
    """Brute-force enumeration would exceed the configured cap."""


# --- extend-engine ------------------------------------------------------


class MissingValue(MonomialError):
    """A Delta function is undefined on a required pair class."""


class ConditionsViolated(MonomialError):
    """Extendibility refused; carries the violating relation/condition."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# --- tame-arith ---------------------------------------------------------


class OutOfDomain(MonomialError):
    """A tame construction was given an argument outside its domain: a
    field F_{p^f} with p not prime or f < 1, a power of 0 with exponent
    <= 0, a root of unity of order below 1, or the inverse of a root value
    c * p^(k/2) whose c is zero or has a non-rational norm c * conj(c)."""


class NotTame(MonomialError):
    """Character conductor would exceed 1, or p divides the ramification
    index (wild ramification is out of scope)."""


class NotAbelianTameCase(MonomialError):
    """Extension is not one of the supported abelian tame shapes."""


class DegenerateCase(MonomialError):
    """ell divides q-1, so the Kummer case applies instead (use check_DH_I)."""


class UnsupportedModel(MonomialError):
    """galois_delta asked for a model outside the supported list, or a
    Galois pair value asked of a subgroup that meets inertia partially."""


class PrimeMismatch(MonomialError):
    """Root values c * p^(k/2) at different primes p were combined."""


class ModulusMismatch(MonomialError):
    """Cyclotomic vectors or exponent pairs at an incompatible modulus."""
