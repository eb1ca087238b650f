"""Flow-based botnet detection.

Aggregates NetFlow records into per-host time-window feature vectors,
trains a recurrent variational autoencoder on non-malicious traffic,
scores traffic by reconstruction error, and classifies host-windows by
comparing likelihoods under densities fitted to normal and botnet score
samples. No decision threshold is tuned anywhere in the pipeline.
"""

__version__ = "0.1.0"
