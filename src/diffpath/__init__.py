"""Deterministic DDIM path engine.

Sampling, inversion, and schedule-driven manipulation of diffusion sampling
paths, verified against a closed-form Gaussian-mixture denoiser.  Names are
imported from their submodules (``from diffpath.edits import run_edit``); the
package loads none of them, so each entry point loads only what it runs.
"""

__version__ = "0.1.0"
