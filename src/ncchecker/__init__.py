"""NCChecker: predict the root cause of a failed test run from its log.

The pipeline mines log templates online, builds a heuristically weighted
event-by-cause lookup table from historical passed and failed logs, and
classifies new failed logs by summing the table rows of their events.
This package exports the library API; every other name lives in its own
module.
"""

from .abstraction import AbstractionConfig
from .corpus import load_corpus, split
from .errors import ValidationError
from .model import load_model, save_model
from .predictor import flag_lines, predict_lines
from .table import build

__version__ = "0.1.0"
