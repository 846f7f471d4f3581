"""Exception types shared across the package.

Every precondition violation raises a dedicated class so callers (and the
CLI exit-code mapping) can tell user errors, nesting errors, and precision
shortfalls apart.
"""


class TateKitError(Exception):
    """Base class for all package errors."""


class FieldMismatch(TateKitError):
    """Operands live over different field contexts."""


class AmbientMismatch(TateKitError):
    """Subspaces of different ambient dimension were combined."""


class NonSquare(TateKitError):
    """A square matrix was required."""


class NotContained(TateKitError):
    """quotient of subspaces requested without sub <= sup."""


class ZeroElement(TateKitError):
    """Valuation or inversion of the zero element."""


class NotInvertibleInLaurentRing(TateKitError):
    """A matrix determinant is not a unit c*t^k of k[t,1/t]."""


class InsufficientPrecision(TateKitError):
    """A truncated series does not carry enough coefficients.

    The ``required`` attribute states how many coefficients would be needed.
    """

    def __init__(self, required, available):
        self.required = required
        self.available = available
        super().__init__(
            "insufficient series precision: %d coefficients required, %d available"
            % (required, available)
        )


class WindowTooLarge(TateKitError):
    """A lattice window would exceed the dense-window dimension cap."""


class SpaceMismatch(TateKitError):
    """Lattices or automorphisms of different Tate spaces were combined."""


class NotNested(TateKitError):
    """Nested lattices were required."""


class DegenerateChain(TateKitError):
    """A chain of automorphisms contains an identity arrow."""


class ChainTooLong(TateKitError):
    """A chain exceeds the configured length cap."""


class UnknownFace(TateKitError):
    """A face descriptor does not address a stored simplex."""


class FrameMismatch(TateKitError):
    """A framed poset does not match the diagram it is applied to."""


class ModeMismatch(TateKitError):
    """Graded and ungraded extension elements were mixed."""


class NotMultiplicationAutomorphism(TateKitError):
    """A multiplication automorphism of k((t)) was required."""
