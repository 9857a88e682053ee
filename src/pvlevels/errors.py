"""Exception types shared across the package.

Each says what a caller can do about it: an ``InputError`` stops the run,
an ``Unforecastable`` day or level is skipped, and a ``TrainingFailed``
net is dropped. Misuse of the array API raises ``ValueError``.
"""


class PvlevelsError(Exception):
    """Base class for all library errors."""


class InputError(PvlevelsError):
    """A file or dataset cannot be read or aligned; the message says where."""


class Unforecastable(PvlevelsError):
    """A day or level has too little usable data to fit, forecast or score."""


class AllExcluded(Unforecastable):
    """Every hour fell below the MAPE exclusion threshold."""


class TrainingFailed(PvlevelsError):
    """Training loss or a parameter became non-finite."""
