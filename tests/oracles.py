"""Closed-form oracles shared across test modules.

Everything here is assembled from the explicit frame families in
mlq.closedform (or from scratch), never from the pipeline under test, so
agreement between the two is meaningful evidence.  The one exception is
``eval_xi``: it sums each family's one definition (``Potential.terms``, as
``make_potential`` writes them) term by term, the plain
reading that ``xi_sampler``'s folded arrays are checked against.
``mp_frame_pair`` repeats the Iwasawa split's arithmetic in mpmath, so the
float64 split can be checked against the same method at 40 digits.
"""

from __future__ import annotations

import mpmath
import numpy as np

from mlq.frames import FramePointPair, q2_point, sphere_pair, xy_matrices
from mlq.potentials import Potential


def eval_xi(pot: Potential, z: complex) -> dict[int, np.ndarray]:
    """Laurent coefficients {k: A_k} of the 1-form xi at z (the form is sum A_k lam^k dz)."""
    z = complex(z)
    terms: dict[int, np.ndarray] = {}
    for w, _, lam_terms in pot.terms:
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
        fp = FramePointPair(frame_fn(z, lam0), frame_fn(z, -1j * lam0))
        x, y = xy_matrices(fp)
        return q2_point(x, y) / np.sqrt(2.0)

    return lift


def analytic_pairs(frame_fn, lambda0=1.0):
    """S2 x S2 factor maps z -> (phi, psi) built from a closed-form frame family."""
    lam0 = complex(lambda0)

    def pairs(z: complex):
        fp = FramePointPair(frame_fn(z, lam0), frame_fn(z, -1j * lam0))
        return sphere_pair(fp)

    return pairs


def sphere_metric_exponent(z: complex) -> float:
    """u with e^u = 1/(1 + |z|^2)^2, the round metric of the geodesic sphere."""
    return -2.0 * np.log1p(abs(complex(z)) ** 2)


def ring_nodes(radii, angles) -> list[complex]:
    """Polar product grid, radius-major."""
    return [complex(r * np.cos(t), r * np.sin(t)) for r in radii for t in angles]


def mp_frame_pair(values: np.ndarray, dps: int = 40) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """F at samples 0 and 3N of a loop given at the 4N roots of unity, split at ``dps`` digits.

    The Bauer split of ``mlq.iwasawa``, written out in mpmath from the
    float64 samples on: the modes |k| <= 2N - 1 of P = Phi* Phi by a direct
    DFT, the Cholesky factor of the (m+1)-block Toeplitz section with
    m = 4N - 2, the oracle's own section (the float64 split starts at
    2N - 1 and doubles only where its residual asks), B_n as the
    conjugate transpose of block m - n of its last block row, B_0 made upper
    triangular with positive diagonal, and F = Phi B^{-1} at the two
    samples.  Also returns the factor residual max_j ||B* B - P|| over the
    samples, P less its Nyquist mode as in the float64 split.
    """
    size = values.shape[0]
    n = size // 4
    d = 2 * n - 1
    m = 2 * d
    with mpmath.workdps(dps):
        phi = [mpmath.matrix(v.tolist()) for v in values]
        p_vals = [v.H * v for v in phi]
        roots = [mpmath.expjpi(mpmath.mpf(2 * j) / size) for j in range(size)]
        coeff = {}
        for k in range(-d, d + 1):
            acc = mpmath.zeros(2)
            for j, pj in enumerate(p_vals):
                acc += pj * roots[(-j * k) % size]
            coeff[k] = acc / size
        section = mpmath.zeros(2 * (m + 1))
        for i in range(m + 1):
            for j in range(max(0, i - d), min(m, i + d) + 1):
                for a in range(2):
                    for b in range(2):
                        section[2 * i + a, 2 * j + b] = coeff[j - i][a, b]
        low = mpmath.cholesky(section)
        b = [low[2 * m : 2 * m + 2, 2 * (m - k) : 2 * (m - k) + 2].H for k in range(d + 1)]
        # B_0 = Q R: B -> Q^* B makes B_0 upper triangular with positive diagonal
        c1, c2 = b[0][:, 0], b[0][:, 1]
        q1 = c1 / mpmath.norm(c1)
        v = c2 - q1 * (q1.H * c2)[0]
        q = mpmath.matrix([[q1[0], v[0] / mpmath.norm(v)], [q1[1], v[1] / mpmath.norm(v)]])
        b = [q.H * bk for bk in b]

        def plus_at(j: int):
            acc = mpmath.zeros(2)
            for k, bk in enumerate(b):
                acc += bk * roots[(j * k) % size]
            return acc

        nyquist = mpmath.zeros(2)
        for j, pj in enumerate(p_vals):
            nyquist += pj * (-1) ** j / size
        residual = max(
            mpmath.mnorm(plus_at(j).H * plus_at(j) - p_vals[j] + nyquist * (-1) ** j, "f") for j in range(size)
        )
        pair = [phi[j] * plus_at(j) ** -1 for j in (0, 3 * n)]
        return tuple(np.array(f.tolist(), dtype=np.complex128) for f in pair), float(residual)
