"""Exception taxonomy shared by all modules.

The CLI maps these to exit codes: input/format/configuration problems exit
with 2, broken internal contracts with 3.
"""


class PmpdError(Exception):
    """Base class for all package errors."""


class ConfigError(PmpdError):
    """A parameter is outside its documented domain (bad precision, grid, lr...)."""


class InputError(PmpdError):
    """User-supplied data is unusable (empty corpus, overlong prompt, bad token id...)."""


class FormatError(InputError):
    """A value read is malformed or outside a constructor's domain (``util.parsing``)."""


class ContractViolation(PmpdError):
    """An internal invariant or cross-module contract was broken at runtime."""
