"""Exception types shared across the package."""


class TreeDecompError(Exception):
    """Base class for all treedecomp errors."""


class MalformedInput(TreeDecompError):
    """Input does not satisfy a documented precondition (shape/range)."""


class NotAFunctionalTree(TreeDecompError):
    """The parent map has no unique contractive fixed point."""


class InvalidPermutation(TreeDecompError):
    """A claimed permutation is not a bijection of Z_n."""


class PreconditionViolated(TreeDecompError):
    """A structural precondition of an operation fails."""


class ResourceLimit(TreeDecompError):
    """Requested size exceeds the configured exhaustive/symbolic cap."""


class NotBijective(TreeDecompError):
    """An induced entry map repeats an index (inconsistent first column)."""


class VerificationFailed(TreeDecompError):
    """A constructed object failed its own verifier; carries a witness."""
