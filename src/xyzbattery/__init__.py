"""Two-spin Heisenberg XYZ quantum battery simulator.

Builds the battery Hamiltonian and its thermal state, drives it with a
transverse charging field, and analyses the stored work: exact two-harmonic
closed form, maximum-work branches, and reconciliation against independent
numerical oracles.

Import each name from its module (see the README's Layout table), for
example ``from xyzbattery.charging import work_curve``; the package itself
holds only ``__version__``.
"""

__version__ = "0.1.0"
