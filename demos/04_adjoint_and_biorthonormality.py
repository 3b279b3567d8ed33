"""Adjoint eigensolutions, the delay bilinear form and biorthonormality.

For each exponent of the parametric benchmark kernel the primal and the
adjoint Fourier components are the right and left null vectors of the
same Hill matrix T(lambda) at the root.
After symmetric normalization the Gram matrix of all (adjoint, primal)
pairs must be the identity and each pairing must not depend on the phase
at which it is evaluated.
"""

import numpy as np

from ddefloquet import BilinearContext, adjoint_modes, find_exponents, normalize
from ddefloquet.systems import s3_density

density = s3_density()
ctx = BilinearContext(density)

modes = find_exponents(density, n_win=10, depth=10, tol=1e-12)
pairs = []
for mode in modes:
    psi = adjoint_modes(density, mode.lam_raw, mode.n_win, mode.depth)
    psi_n, phi_n, nfac = normalize(psi, mode, density)
    pairs.append((psi_n, phi_n))
    print(f"lambda = {mode.lam:.10f}: adjoint residual {psi.residual:.1e}, "
          f"normalization factor {nfac:.6f}")

print()
print("Gram matrix (adjoint row i paired with primal column j)")
n = len(pairs)
gram = np.zeros((n, n), dtype=complex)
for i, (psi_n, _) in enumerate(pairs):
    for j, (_, phi_n) in enumerate(pairs):
        gram[i, j] = ctx.pair(psi_n, phi_n, 0.0)
with np.printoptions(precision=3, suppress=True):
    print(gram)

print()
print("phase independence of the pairing")
psi_n, phi_n = pairs[0]
vals = [ctx.pair(psi_n, phi_n, xi) for xi in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
print(f"  max drift over 8 phases: {max(abs(v - vals[0]) for v in vals):.2e}")
