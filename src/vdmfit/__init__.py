"""vdmfit: fit vulnerability discovery models to cumulative vulnerability
counts, test goodness-of-fit, and track fit stability and quality over a
release's lifetime."""

from enum import Enum

__version__ = "0.1.0"

# the names the command line reads before any fit, kept here so that the commands
# that fit nothing load no numpy; models.MODELS checks its rows against MODEL_IDS
MODEL_IDS = ("AML", "AT", "LN", "LP", "RE", "RQ")
# nodes on each launch axis of the multistart grid of AML, RE and LP (AT,
# LN and RQ iterate on nothing); the only fit setting a run chooses
DEFAULT_MULTISTART = 3


class FitClass(Enum):
    GOOD_FIT = "GoodFit"
    INCONCLUSIVE = "Inconclusive"
    NOT_FIT = "NotFit"


class NoiseKind(Enum):
    NONE = "none"
    MULTIPLICATIVE = "multiplicative"
    ADDITIVE_ROUNDED = "additive_rounded"
