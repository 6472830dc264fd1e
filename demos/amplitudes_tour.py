"""A tour of the one-point amplitudes.

Run with:  python3 demos/amplitudes_tour.py

Values are polynomials in Q (the closed modulus, Q = -e^{-t}) whose
coefficients are ratios of quantum brackets [n] = u^n - u^{-n}, u = q^{1/2}.
The stored normalization is (n i) * F_n: the raw free-energy coefficient with
its 1/(n i) prefactor stripped, so everything is exact and real.
"""

from conifold.amplitudes import (
    closed_string_logZ,
    genus0_onepoint,
    genus_expand,
    onepoint_closed,
    onepoint_partition_sum,
)
from conifold.fock import beta_neg_exp, brane_state

print("Closed forms at zero framing")
print("----------------------------")
for n in (1, 2, 3):
    print(f"  winding {n}:  {onepoint_closed(0, n)}")

print()
print("The same values out of the sum over partitions")
print("----------------------------------------------")
state = beta_neg_exp(brane_state(3, 3), 3, 3)
for n in (1, 2, 3):
    same = onepoint_partition_sum(0, n, state) == onepoint_closed(0, n)
    print(f"  winding {n}: partition sum agrees -> {same}")

print()
print("Framing -1 degenerates to ((-1)^{n-1} + Q^n)/[n]")
print("------------------------------------------------")
for n in (1, 2, 3, 4):
    print(f"  winding {n}:  {onepoint_closed(-1, n)}")

print()
print("Genus-zero polynomials (coefficients of the potential)")
print("------------------------------------------------------")
for n in (1, 2, 3, 4, 5):
    print(f"  x^{n}:  {genus0_onepoint(0, n)}")

print()
print("Genus expansion of the winding-2 amplitude at framing 1")
print("-------------------------------------------------------")
series = genus_expand(onepoint_closed(1, 2), 2, 2)
for (j, e) in sorted(series.terms, key=lambda t: (t[1], t[0])):
    print(f"  Q^{j} lambda^{e}:  {series.terms[(j, e)]}")
print("  (only odd powers of lambda occur; lambda^{-1} is the genus-zero part)")

print()
print("Closed-string free energy")
print("-------------------------")
print(f"  {closed_string_logZ(4)}")
