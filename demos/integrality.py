"""Ooguri-Vafa integrality of the disc invariants.

Run with:  python3 demos/integrality.py

Moebius inversion extracts three families from the amplitudes: integers
d_{k,m} at genus zero, half-integers e_{k,m} from the Q-resummation, and
bar-symmetric integer Laurent polynomials N_{m,k} at all genera.
"""

from conifold.ovinv import (
    catalan_number,
    disc_d,
    disc_e,
    dmm_report,
    ov_N,
)

print("Genus-zero d invariants at zero framing (rows m, columns k)")
print("-----------------------------------------------------------")
for m in range(1, 9):
    row = [disc_d(0, k, m) for k in range(1, min(m, 6) + 1)]
    print(f"  m={m:2d}: " + "  ".join(f"{v!s:>8}" for v in row))

print()
print("The adjacent column is the Catalan sequence")
print("-------------------------------------------")
assert all(abs(disc_d(0, k, k + 1)) == catalan_number(k) for k in range(1, 11))
print(" ", [catalan_number(k) for k in range(1, 11)])

print()
print("Half-integral e invariants (boxed spots of the printed table)")
print("-------------------------------------------------------------")
for (k, m) in ((2, 2), (2, 4), (6, 6), (6, 10)):
    print(f"  e_{{{k},{m}}} = {disc_e(0, k, m)}")

print()
print("|d_mm| against the printed excerpt (one skipped term)")
print("-----------------------------------------------------")
for row in dmm_report(10):
    flag = "" if row["matches_printed"] else "   <- printed list skips this term"
    print(f"  m={row['m']:2d}: formula {row['formula']!s:>6}, printed {row['printed']}{flag}")

print()
print("All-genus N polynomials")
print("-----------------------")
for (a, m, k) in ((0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 3)):
    print(f"  N[a={a}, m={m}, k={k}] = {ov_N(a, m, k)}")

print()
print("A caveat at odd framing")
print("-----------------------")
print("  the defining recursion forces d_{2,2} = (a+2)/2, so d-integrality")
print(f"  fails there: d_{{2,2}} at framing 1 is {disc_d(1, 2, 2)}")
print("  (2 d is always integral, and even framings are fully integral)")
