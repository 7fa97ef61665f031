"""Exception types shared across the package.

Every named failure mode raised by the public API lives here so callers
(and the CLI) can catch by class instead of parsing messages.
"""


class ModcohError(Exception):
    """Base class for all package-specific errors."""


# -- groups ---------------------------------------------------------------

class NonPermutation(ModcohError):
    """Images do not describe a bijection on [0, n)."""


class GroupTooLarge(ModcohError):
    """Closure under the generators exceeded the configured size cap."""


# -- linear algebra -------------------------------------------------------

class DimensionMismatch(ModcohError):
    """Operands have incompatible shapes."""


class NotContained(ModcohError):
    """Claimed subspace inclusion W <= U does not hold."""


class PrimeTooLarge(ModcohError):
    """Prime exceeds fplinalg.MAX_PRIME, so int64 arithmetic mod p could overflow."""


# -- modules --------------------------------------------------------------

class GroupMismatch(ModcohError):
    """Modules live over different groups or different primes."""


class RepresentationError(ModcohError):
    """Action matrices fail the representation property."""


# -- resolutions ----------------------------------------------------------

class MinimalityUnavailable(ModcohError):
    """Minimal resolutions are defined here only over p-groups."""


class LengthTooSmall(ModcohError):
    """Requested resolution or series length is too short."""


class SeriesTooShort(ModcohError):
    """Dimension series has too few entries for the estimator."""


class InsufficientData(ModcohError):
    """Series shorter than the denominator degree of the attempted fit."""


class NoFitFound(ModcohError):
    """Automatic rational-function fitting exhausted its search space."""


class ElementaryAbelianInput(ModcohError):
    """Operation requires a p-group that is not elementary abelian."""


# -- cohomology maps ------------------------------------------------------

class SylowNotAbelian(ModcohError):
    """The abelian-Sylow comparison requires an abelian Sylow subgroup."""


# -- products -------------------------------------------------------------

class DegreeMismatch(ModcohError):
    """Class degrees exceed the computed range of the diagonal map."""


class LiftFailure(ModcohError):
    """Chain-map lifting failed; indicates a non-exact resolution."""


class NotMaximal(ModcohError):
    """Subgroup list for a splice complex must consist of index-p subgroups."""


# -- catalog / CLI --------------------------------------------------------

class BadParameters(ModcohError):
    """Constructor parameters are out of range or inconsistent."""


class NotAnAutomorphism(ModcohError):
    """Semidirect-product action map is not a homomorphism into Aut(N)."""


class NoExpectedData(ModcohError):
    """Catalog entry has no stored expected series at the requested prime."""
