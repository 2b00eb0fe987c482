"""Low-dimensional CRB-optimal beamforming for multi-user sensing downlinks.

The solver works in the K-dimensional subspace spanned by the user channels,
so its per-iteration cost is independent of the transmit array size.
"""

__version__ = "0.1.0"
