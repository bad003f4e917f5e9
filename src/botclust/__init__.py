"""Unsupervised bot detection from daily tweet-activity time series.

The pipeline turns per-user tweet timelines into daily multivariate time
series, compresses them with an LSTM autoencoder, clusters the latent
representations, and labels clusters to separate bots from genuine users
(and bot types from each other).
"""

import os

# One BLAS thread unless the caller set one, before numpy loads: the products
# are too small to gain from more, and the count moves the vec encoder's bits.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
