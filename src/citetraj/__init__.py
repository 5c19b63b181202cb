"""citetraj: cluster annual count trajectories by functional Poisson regression.

Pipeline: ingest count trajectories -> estimate a smooth mean and an
orthonormal eigenbasis of the log curves -> refit per-item scores by
Poisson maximum likelihood -> benchmark against the WSB citation model ->
cluster the scores and label clusters by shape (normal-low, normal-high,
delayed, evergreen).
"""

from . import clustering, data, fpca, pipeline, plots, poisson, smoothing, synthgen, wsb
from .data import Corpus, CountTrajectory, TimeGrid, parse_corpus, write_corpus
from .errors import CitetrajError, ConfigError, DataError, NumericalError
from .fpca import LatentBasis
from .pipeline import ModelFile, PipelineConfig, load_model, run_pipeline, save_model
from .poisson import TrajectoryFit, fit_corpus
from .wsb import WsbFit, fit_wsb

__version__ = "0.1.0"
