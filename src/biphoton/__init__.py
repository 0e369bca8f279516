"""biphoton: numerical toolkit for engineering the joint spectrum of
photon pairs from parametric down-conversion.

Submodules:
  dispersion    Sellmeier indices, group slopes, phase-matching and
                group-velocity-matching solvers.
  spectra       frequency grids, pump envelopes, joint spectral amplitudes
                (sinc and transverse-pump-engineered builders), filters.
  schmidt       SVD mode decomposition, cooperativity, the closed-form
                two-width-Gaussian mode ladder and its Hermite/Mehler basis.
  interference  two-crystal coincidence dip, Bell-state analyzer rates,
                polarization fringes.
  design        factorable-waist / pump-bandwidth design rules, regime
                checks, photon-economy records.
  focksim       multimode linear-optics Fock simulator, NS gate,
                six-fold coincidence vs cooperativity.
  cli           command-line front end (`biphoton ...`).
"""

from . import design, dispersion, focksim, interference, schmidt, spectra
from .errors import (PhaseMatchError, RangeError, RegimeError,
                     ValidationError)

__version__ = "0.1.0"

__all__ = [
    "design", "dispersion", "focksim", "interference", "schmidt", "spectra",
    "PhaseMatchError", "RangeError", "RegimeError", "ValidationError",
    "__version__",
]
