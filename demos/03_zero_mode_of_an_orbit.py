"""The orbit derivative is a Floquet eigensolution with a neutral exponent.

Linearizing the delayed van der Pol system about its computed periodic
orbit must produce an exponent at zero (up to the orbit truncation error)
whose eigensolution is the derivative of the orbit itself.  This script
builds the chain orbit -> state -> kernel -> spectrum and compares the
extracted components against the orbit derivative.  The search also
reports the amplitude exponent near -0.078; at this kernel every
continued fraction run pinches and stops at its first step outside
CLASS_TOL of its class, so both modes are the Hill eigenvalues with their
null vectors.
"""

import numpy as np

from ddefloquet import find_exponents, monodromy_exponents
from ddefloquet.verify import cosine_similarity, s2_linearization

density, exp, state, omega = s2_linearization(mu=0.1, order=2)
print(f"orbit frequency omega = {omega:.10f}")
print(f"kernel: {density.dim}x{density.dim}, band |k| <= {density.bandwidth}")

modes = find_exponents(
    density, box=(-0.6, 0.3, -0.5, 0.5), n_win=8, depth=8, tol=1e-9
)
mode = min(modes, key=lambda m: abs(m.lam))
print(f"neutral exponent lambda0 = {mode.lam:.6e}  (order mu^3 from the truncation)")
print("all exponents in the box:", ", ".join(f"{m.lam.real:.10f}" for m in modes))

deriv = state.derivative()
shift = mode.strip_offset
target = np.zeros_like(mode.components)
for n in range(-mode.n_win, mode.n_win + 1):
    if abs(n + shift) <= deriv.cutoff:
        target[n + mode.n_win] = deriv.coefficient(n + shift)
sim = cosine_similarity(mode.components, target)
print(f"cosine similarity of eigensolution vs orbit derivative: {sim:.6f}")

print()
print("independent check: monodromy multipliers of the same kernel")
for lam, rho in monodromy_exponents(density, re_min=-1.5)[:4]:
    print(f"  lambda = {lam:.8f}   rho = {rho:.8f}")
