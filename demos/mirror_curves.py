"""Mirror curves verified order by order.

Run with:  python3 demos/mirror_curves.py

The branch y(x) = exp(x d/dx Psi_0) of the curve through (0, 1) solves
    y + x y^{-a} - 1 - E x y^{-a-1} = 0        (E = e^{-t})
in framing a, and the zero-framing and framed curves are related by the
substitution x -> x y^{-a}.  Everything below is exact truncated-series
arithmetic over the rationals.
"""

from conifold.mirror import (
    framed_curve_check,
    framing_transform_check,
    lagrange_z0,
    quantum_mirror_check,
    y_from_amplitude,
    zero_framing_curve_check,
)

print("The zero-framing branch")
print("-----------------------")
y = y_from_amplitude(0, 4)
print(f"  y(x) = {y}")
print(f"  residual of y^2 - (1-x) y - x E through x^10: "
      f"{'NONZERO' if any(zero_framing_curve_check(10).values()) else '0'}")

print()
print("Lagrange inversion of x = z (1 - Q z)^{a+1} / (1 + z)^{a+1}")
print("-----------------------------------------------------------")
for a in (1, 2, -2):
    z0 = lagrange_z0(a, 3)
    print(f"  a = {a:+d}:  z0 = {z0}")

print()
print("Framed curve residuals")
print("----------------------")
for a in (-3, -2, 0, 1, 2, 3):
    ok = not any(framed_curve_check(a, 8).values())
    print(f"  framing {a:+d}: residual of y + x y^{-a} - 1 - E x y^{-a-1} is zero -> {ok}")

print()
print("Framing transformation x -> x y^{-a} maps curve to curve")
print("--------------------------------------------------------")
for a in (-4, -2, 1, 3):
    print(f"  framing {a:+d}: {framing_transform_check(a)}")

print()
print("Quantum mirror curve")
print("--------------------")
for a in (0, 1):
    ok = quantum_mirror_check(a, 5)
    print(f"  framing {a:+d}: lambda -> 0 limit reproduces the classical branch -> {ok}")
