"""Brute force checks: time stepping, the semigroup property, monodromy.

These are the deliberately independent reference computations: a fixed
step integrator with cubic history interpolation and the eigenvalues of a
Chebyshev collocation of the period map.  The script verifies an exact delayed solution,
the semigroup property of the solution operator, and the agreement of
monodromy multipliers with constant coefficient characteristic roots.
"""

import numpy as np

from ddefloquet import characteristic_roots, integrate_mos, monodromy_exponents
from ddefloquet.model import rescale
from ddefloquet.systems import constant_density, linear_scalar_system, s1_system

# q'(xi) = -q(xi - pi/2) has the exact solution cos(xi)
sys_cos = linear_scalar_system(0.0, -1.0, np.pi / 2)
traj = integrate_mos(sys_cos, lambda th: np.array([np.cos(th)]), 2 * np.pi, np.pi / 200)
err = max(abs(traj.at(x)[0] - np.cos(x)) for x in np.linspace(0.5, 2 * np.pi, 50))
print(f"pure delay cosine solution: max error over one period = {err:.2e}")

# semigroup property: integrate in one leg or in two legs
sys1 = rescale(s1_system(), 1.0)
h = sys1.tau / 200
one = integrate_mos(sys1, lambda th: np.array([np.cos(th)]), 3.5, h)
leg1 = integrate_mos(sys1, lambda th: np.array([np.cos(th)]), 2.0, h)
leg2 = integrate_mos(sys1, leg1.segment(2.0, npts=201), 1.5, h)
print(f"semigroup check: |two-leg - one-leg| = "
      f"{np.max(np.abs(leg2.at(1.5) - one.at(3.5))):.2e}")

# monodromy multipliers of a constant kernel vs characteristic roots
a, b = -0.2, -0.4
dens = constant_density(a, b, omega=1.0, tau=1.0)
mono = monodromy_exponents(dens, 20, re_min=-1.6)  # Chebyshev degree 20
roots = characteristic_roots(a, b, 1.0, 1.0, box=(-1.6, 0.5, -1.0, 1.0))
print("constant kernel: monodromy exponents vs characteristic roots")
for lam, rho in mono[:2]:
    nearest = min(roots, key=lambda r: abs(np.exp(2 * np.pi * r) - rho))
    print(f"  lambda = {lam:.10f}   nearest root {nearest:.10f}   "
          f"|delta rho| = {abs(np.exp(2 * np.pi * nearest) - rho):.1e}")
