"""Closed-form oracles shared across test modules.

Everything here is assembled from the explicit frame families in
mlq.closedform (or from scratch), never from the pipeline under test, so
agreement between the two is meaningful evidence.  The one exception is
``eval_xi``: it sums each family's one definition term by term, the plain
reading that ``xi_sampler``'s folded arrays are checked against.
"""

from __future__ import annotations

import numpy as np

from mlq.frames import FramePointPair, q2_point, sphere_pair, xy_matrices
from mlq.potentials import Potential, _xi_terms


def eval_xi(pot: Potential, z: complex) -> dict[int, np.ndarray]:
    """Laurent coefficients {k: A_k} of the 1-form xi at z (the form is sum A_k lam^k dz)."""
    z = complex(z)
    terms: dict[int, np.ndarray] = {}
    for w, lam_terms in _xi_terms(pot):
        s = 1.0 if w is None else w(z)
        for k, mat in lam_terms.items():
            terms[k] = terms.get(k, 0) + s * np.asarray(mat, dtype=complex)
    return terms


def loop_at(terms: dict[int, np.ndarray], lams) -> np.ndarray:
    """sum_k A_k lam^k at each spectral value, shape (len(lams), 2, 2), term by term."""
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    return sum(np.multiply.outer(lams**k, np.asarray(a, dtype=complex)) for k, a in terms.items())


def analytic_surface(frame_fn, lambda0=1.0):
    """Unit Q2 lift z -> v(z) built from a closed-form frame family."""
    lam0 = complex(lambda0)

    def lift(z: complex) -> np.ndarray:
        fp = FramePointPair(frame_fn(z, lam0), frame_fn(z, -1j * lam0), lam0)
        x, y = xy_matrices(fp)
        return q2_point(x, y) / np.sqrt(2.0)

    return lift


def analytic_pairs(frame_fn, lambda0=1.0):
    """S2 x S2 factor maps z -> (phi, psi) built from a closed-form frame family."""
    lam0 = complex(lambda0)

    def pairs(z: complex):
        fp = FramePointPair(frame_fn(z, lam0), frame_fn(z, -1j * lam0), lam0)
        return sphere_pair(fp)

    return pairs


def sphere_metric_exponent(z: complex) -> float:
    """u with e^u = 1/(1 + |z|^2)^2, the round metric of the geodesic sphere."""
    return -2.0 * np.log1p(abs(complex(z)) ** 2)


def ring_nodes(radii, angles) -> list[complex]:
    """Polar product grid, radius-major."""
    return [complex(r * np.cos(t), r * np.sin(t)) for r in radii for t in angles]
