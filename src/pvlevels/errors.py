"""Exception types shared across the package."""


class PvlevelsError(Exception):
    """Base class for all library errors."""


class MisalignedRange(PvlevelsError):
    """Series or profiles do not share the same start hour."""


class LengthMismatch(PvlevelsError):
    """Paired sequences have different lengths."""


class LevelTagMismatch(PvlevelsError):
    """A series carries a level tag that does not match its position."""


class OutOfRangeDay(PvlevelsError):
    """Day-of-year outside [1, 366]."""


class NoNightHours(PvlevelsError):
    """Offset removal needs at least one zero-clear-sky hour."""


class AllNight(PvlevelsError):
    """No hour clears the day threshold."""


class AllExcluded(PvlevelsError):
    """Every hour fell below the MAPE exclusion threshold."""


class ConstantActual(PvlevelsError):
    """R^2 is undefined when the actual series has zero variance."""


class DimensionMismatch(PvlevelsError):
    """Input vector width does not match the network input layer."""


class TooShort(PvlevelsError):
    """Series too short for the requested delay depth."""


class EmptyBatch(PvlevelsError):
    """Training batch contains no samples."""


class DivergedLoss(PvlevelsError):
    """Training loss became non-finite."""


class SeedLengthMismatch(PvlevelsError):
    """Closed-loop seed does not hold exactly d values per channel."""


class InsufficientHistory(PvlevelsError):
    """Not enough history before the forecast day."""


class EmptyList(PvlevelsError):
    """An operation requiring a non-empty collection received an empty one."""


class EmptyDay(PvlevelsError):
    """Weather classification needs at least one day-hour value."""


class ParseError(PvlevelsError):
    """Malformed input file; message carries the offending line."""


class GapError(PvlevelsError):
    """Hourly series has missing hours; message lists them."""


class DuplicateRow(PvlevelsError):
    """Same (timestamp, level, series id) appears twice."""
