"""Floquet exponents of the parametric benchmark kernel, three ways.

The scalar kernel dq/dxi = (-0.3 + 0.1 cos xi) q + (-0.5) q(xi - 1) is
solved with the n-diagonal matrix continued fraction, the paired
tridiagonal continued fraction, and a brute force monodromy map on a
sampled history segment.  All three must agree.  Both continued
fraction routes find the same four classes, the fold pair near
-2.7639 +- 0.4619i included: its dominant Fourier component sits eight
harmonics off the strip value, at the translate where the contour
solve on the Hill matrix starts its Newton run.
"""

import time
import warnings

import numpy as np

from ddefloquet import find_exponents, monodromy_exponents
from ddefloquet.risken import find_exponents_risken
from ddefloquet.systems import s3_density

density = s3_density()
warnings.simplefilter("ignore")

t0 = time.time()
cf = find_exponents(density, n_win=10, depth=10, tol=1e-12)
print(f"n-diagonal continued fraction  ({time.time() - t0:.1f}s)")
for m in cf:
    print(f"  lambda = {m.lam:.12f}   |multiplier| = {abs(m.multiplier):.6e}  "
          f"residual = {m.residual:.1e}")

t0 = time.time()
rk = find_exponents_risken(density, depth=12, tol=1e-12)
print(f"paired tridiagonal route       ({time.time() - t0:.1f}s)")
for lam, raw in rk:
    print(f"  lambda = {lam:.12f}")

t0 = time.time()
mono = monodromy_exponents(density, re_min=-3.0)
print(f"monodromy collocation          ({time.time() - t0:.1f}s)")
for lam, rho in mono:
    print(f"  lambda = {lam:.12f}   |multiplier| = {abs(rho):.6e}")

print()
print("pairwise distances (strip representatives)")
for m in cf:
    d_rk = min(abs(m.lam - lam) for lam, _ in rk)
    d_mo = min(abs(m.lam - lam) for lam, _ in mono)
    print(f"  {m.lam:.8f}: vs tridiagonal {d_rk:.1e}, vs monodromy {d_mo:.1e}")

print()
print("mod-i structure: raw Newton roots vs strip representatives")
for m in cf:
    print(f"  raw {m.lam_raw:.8f}  ->  strip {m.lam:.8f}  (shift {m.strip_offset})")
