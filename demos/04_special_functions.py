#!/usr/bin/env python3
"""The special-function kernels underneath everything else.

Log-gamma (the standard library's ``math.lgamma``) with the sign of
Gamma at negative arguments, the Macdonald function as the Tricomi
function U(nu + 1/2, 2 nu + 1, 2x), and the confluent kernel family
Psi(1/6, c, x) with the contiguity pattern that turns derivative
inequalities into parameter shifts.
"""

import math

from stable_msu import bessel_k, log_gamma, psi_chf, whittaker_w_stable

print("=== log-gamma with signs ===")
for x in (0.5, 5.0, -0.6, -1.2, -2.5):
    ev, sign = log_gamma(x)
    print(f"x = {x:5.2f}: log|Gamma| = {ev.value: .10g}, sign = {sign:+d}, "
          f"Gamma = {math.gamma(x): .8g}")

print("\n=== Macdonald function K_nu ===")
print(f"K_1/2(1) = {bessel_k(0.5, 1.0).value:.12g} "
      f"(closed form {math.sqrt(math.pi/2)*math.exp(-1):.12g})")
k = bessel_k(1/3, 0.3849001794597505)
print(f"K_1/3(2/(3 sqrt 3)) = {k.value:.12g} (+/- {k.abs_error_estimate:.1e})")

print("\n=== confluent kernel family U_l(x) = Psi(1/6, l/3, x) ===")
x = 1.0
u1 = psi_chf(1/6, 1/3, x).value
u4 = psi_chf(1/6, 4/3, x).value
u7 = psi_chf(1/6, 7/3, x).value
print(f"at x = 1: U1 = {u1:.8g} <= U4 = {u4:.8g} <= U7 = {u7:.8g}")

print("\ncontiguity: g = e^-x U4 has g' = -e^-x U7 (check by differences)")
h = 1e-4
g = lambda t: math.exp(-t) * psi_chf(1/6, 4/3, t, rel_tol=1e-12).value
fd = (g(x + h) - g(x - h)) / (2 * h)
print(f"finite difference: {fd:.10g}, -e^-x U7: {-math.exp(-x)*u7:.10g}")

print("\n=== Whittaker kernel ===")
for x in (0.1, 1.0, 4.0):
    w = whittaker_w_stable(x)
    print(f"W(x = {x}) = {w.value:.10g} (+/- {w.abs_error_estimate:.1e})")
