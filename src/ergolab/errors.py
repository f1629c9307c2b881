"""Exception hierarchy shared by all ergolab modules, and the base of
their read-only value classes.

Every error carries a stable ``code`` string so the CLI can surface
module-qualified error codes in its JSON summaries.
"""

from __future__ import annotations


class ReadOnly:
    """Base of the classes that validate their arguments: ``__init__``
    binds each attribute once through ``vars(self)``, and rebinding or
    deleting one raises.  ``functools.cached_property`` and pickling write
    to ``vars(self)`` too, so both keep working."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class ErgolabError(Exception):
    """Base class for all package errors."""

    code = "ergolab.error"


class DomainError(ErgolabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""

    code = "ergolab.domain"


# -- systems ---------------------------------------------------------------

class NotAperiodic(ErgolabError):
    """No power of the adjacency matrix up to (m-1)^2 + 1 is positive."""

    code = "systems.not_aperiodic"


class IncompatibleSupport(ErgolabError):
    """Transition support does not match the adjacency matrix."""

    code = "systems.incompatible_support"


class NotStochastic(ErgolabError):
    """A transition row sum deviates from 1 by more than 1e-9."""

    code = "systems.not_stochastic"


class WindowExhausted(ErgolabError):
    """An evaluation reached outside the finite symbol window [-W, W]."""

    code = "systems.window_exhausted"


class VariantMismatch(ErgolabError):
    """Observable variant does not match the point/system it is applied to."""

    code = "systems.variant_mismatch"


# -- sequences -------------------------------------------------------------

class NonPositiveTerm(ErgolabError):
    """A generated sequence term is not a positive integer."""

    code = "sequences.non_positive_term"


# -- correlations ----------------------------------------------------------

class NotCylinder(ErgolabError):
    """Exact shift oracle asked about a system that is not a shift."""

    code = "correlations.not_cylinder"


class NotTrig(ErgolabError):
    """Exact torus oracle asked about a system that is not a torus automorphism."""

    code = "correlations.not_trig"


class SubsetMissing(ErgolabError):
    """A moment/cumulant table lacks a required nonempty subset."""

    code = "correlations.subset_missing"


class KTooLarge(ErgolabError):
    """Cumulant order exceeds the Bell-number guard (k <= 10)."""

    code = "correlations.k_too_large"


class InsufficientData(ErgolabError):
    """Too few data points for a rate fit."""

    code = "correlations.insufficient_data"


# -- dyadic ----------------------------------------------------------------

class ShapeMismatch(ErgolabError):
    """A term matrix does not cover the required index range."""

    code = "dyadic.shape_mismatch"


# -- matrix_growth ---------------------------------------------------------

class Singular(ErgolabError):
    """Matrix is singular where invertibility is required."""

    code = "matrix_growth.singular"


class FitInconsistent(ErgolabError):
    """Empirical growth fit disagrees with the eigenvalue classification."""

    code = "matrix_growth.fit_inconsistent"


class HypothesisFailed(ErgolabError):
    """The expanded/contracted eigenvector pairing does not hold."""

    code = "matrix_growth.hypothesis_failed"


class Indeterminate(ErgolabError):
    """An eigenvalue modulus is too close to 1 to classify at tolerance."""

    code = "matrix_growth.indeterminate"


# -- cli -------------------------------------------------------------------

class ConfigError(ErgolabError):
    """Experiment configuration failed validation."""

    code = "cli.config"
