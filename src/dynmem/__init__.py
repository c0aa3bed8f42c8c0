"""Continual-learning toolkit: a gram-distance dynamic rehearsal memory with
naive, EWC and EWC-frozen-norm baselines on a synthetic shifted image stream.
"""

from .data import Corpus, CorpusConfig, Dataset, build_corpus, emit_stream
from .experiment import ExperimentConfig, run_base_training, run_continual, run_full_training
from .gram import gram_distance, gram_matrix, signatures
from .memory import DynamicMemory, InsertOutcome
from .model import ConvNetClassifier
from .strategies import DMStrategy, EWCStrategy, NaiveStrategy, make_strategy
from .validation import ConfigError, DivergenceError, ShapeError, StateError

__version__ = "0.1.0"

__all__ = [
    "Corpus", "CorpusConfig", "Dataset", "build_corpus", "emit_stream",
    "ExperimentConfig", "run_base_training", "run_continual", "run_full_training",
    "gram_distance", "gram_matrix", "signatures",
    "DynamicMemory", "InsertOutcome",
    "ConvNetClassifier",
    "DMStrategy", "EWCStrategy", "NaiveStrategy", "make_strategy",
    "ConfigError", "DivergenceError", "ShapeError", "StateError",
]
