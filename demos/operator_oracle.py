"""The Fock-space operator engine, step by step.

Run with:  python3 demos/operator_oracle.py

The brute-force route to an amplitude: build the brane state as an
exponential of creation operators, twist by q^{(a+1) K} through the Schur
eigenbasis of the cut-and-join operator K, pair against the vacuum, and read
off the winding coefficient.  No closed formula enters anywhere, which is
what makes the agreement with the closed form a real check.
"""

from fractions import Fraction

from conifold.amplitudes import onepoint_closed
from conifold.fock import (
    beta_correlator_word,
    beta_neg_exp,
    brane_state,
    correlator_closed,
    correlator_reduce,
    cutjoin_apply,
    oracle_onepoint,
    qK_apply,
    schur_vector,
)
from conifold.partitions import kappa, partitions_of

print("Cut-and-join eigenvalues: K s_mu = (kappa_mu / 2) s_mu")
print("------------------------------------------------------")
for mu in partitions_of(4):
    s = schur_vector(mu)
    eigen = cutjoin_apply(s) == s.scale(Fraction(kappa(mu), 2))
    print(f"  mu = {mu}: kappa/2 = {Fraction(kappa(mu), 2)}, eigenvector -> {eigen}")

print()
print("The brane state and its framing twist (winding 2, framing 0)")
print("------------------------------------------------------------")
state = beta_neg_exp(brane_state(2, 2), 2, 2)
for mu, c in sorted(state.coeffs.items()):
    print(f"  p_{mu}: {c}")
twisted = qK_apply(state, 1)
print("after q^K:")
for mu, c in sorted(twisted.coeffs.items()):
    print(f"  p_{mu}: {c}")

print()
print("Oracle vs closed form")
print("---------------------")
state = beta_neg_exp(brane_state(3, 3), 3, 3)
for a in (-2, 0, 1):
    for n in (1, 2, 3):
        agree = oracle_onepoint(a, n, state) == onepoint_closed(a, n)
        print(f"  framing {a:+d}, winding {n}: {agree}")

print()
print("Correlators: commutator rewriting vs the determinant closed form")
print("----------------------------------------------------------------")
for comp, mult in (((3,), (2,)), ((2, 1), (1, 3)), ((1, 1, 1), (2, 1, 2))):
    n = sum(comp)
    word = beta_correlator_word(n, comp, mult)
    reduced = correlator_reduce(word)
    closed = correlator_closed(n, comp, mult)
    print(f"  n={n}, m={comp}, multipliers={mult}")
    print(f"    reduced: {reduced}")
    print(f"    closed:  {closed}  (equal: {reduced == closed})")
