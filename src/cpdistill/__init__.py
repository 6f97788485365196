"""Continual policy distillation of scripted task experts into a
Transformer-MoE student, with replay selection, task embeddings, and
Acc/BWT reporting.

Importing the package before numpy runs BLAS and OpenMP on one thread
unless the environment already sets a count (see `cpdistill.cli`)."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
