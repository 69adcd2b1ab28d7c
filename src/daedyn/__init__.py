"""Learning-dynamics toolkit for linear denoising and weight-decayed autoencoders.

Closed-form trajectory predictions, gradient-descent simulators, covariance
spectrum machinery, binary dataset ingestion, and a CSV-emitting experiment
CLI. See the README for the CSV schemas and the cache file format.
"""

__version__ = "0.1.0"
