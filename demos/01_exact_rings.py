#!/usr/bin/env python3
"""Tour of the exact coefficient rings.

Every computation in the package runs over Z[w], the ring of integers
extended by a primitive sixth root of unity w (so w*w = w - 1 and
w**3 = -1).  Laurent polynomials over Z[w] in one variable t carry the
colored Alexander values; integer Laurent polynomials in two variables
(s0, s1) carry the Links-Gould values.  Nothing here is floating point:
equality of invariants means equality of dictionaries of exact
coefficients.
"""

from braidinv import CycScalar, LaurentPoly1, LaurentPoly2, parse_poly, specialize
from braidinv.ring import GENERIC_MODULUS

ONE = CycScalar.one()
W = CycScalar.omega()


def main() -> None:
    print("=== scalars: Z[w], w = exp(i pi / 3) ===")
    print(f"w          = {W}")
    print(f"w*w        = {W * W}          (minimal polynomial: w^2 - w + 1 = 0)")
    print(f"w**3       = {W ** 3}")
    print(f"w**6       = {W ** 6}")
    isqrt3 = 2 * W - ONE
    print(f"2w - 1     = {isqrt3}   and (2w - 1)^2 = {isqrt3 * isqrt3}  (so 2w - 1 = i sqrt 3)")

    print("\nThe six units, with inverses:")
    for u in (CycScalar.omega_power(k) for k in range(6)):
        print(f"  {u}  *  {u.unit_inverse()}  =  {u * u.unit_inverse()}")

    print("\nGalois conjugation w -> w^-1 = 1 - w gives the field norm:")
    z = CycScalar(3, -2)
    print(f"  z = {z},  conj(z) = {z.galois_conjugate()},  z * conj(z) = {z * z.galois_conjugate()}")

    print("\n=== one-variable Laurent polynomials over Z[w] ===")
    t2 = LaurentPoly1.t_power(2)
    p = (t2 - LaurentPoly1.one()) * (t2 - LaurentPoly1.constant(W * W))
    print(f"(t^2 - 1)(t^2 - w^2) = {p}")
    print(f"round trip through text: {parse_poly(str(p)) == p}")

    print("\nEvaluation at unit arguments is exact (here t = w):")
    print(f"  p(w) = {p.evaluate(W)}")

    print("\nThe palindrome substitution t -> w * t^-1 used by the symmetry check:")
    print(f"  p(w/t) = {p.substitute_unit_over_t(W)}")

    print("\n=== two-variable polynomials, and no square root ===")
    mon = LaurentPoly2.monomial
    generic = (mon(2, 0) - mon(0, 0)) * (mon(0, 0) - mon(0, 2))
    print(f"(t0 - 1)(1 - t1) = {generic}")
    print(f"is a polynomial in t0 = s0^2, t1 = s1^2: {generic.is_polynomial_in_squares()}")

    # The published Links-Gould matrix has cells o*Y with Y^2 = p.  The
    # package never adjoins Y: a diagonal gauge (demo 03) turns each o*Y
    # into o*p or o, so every value stays in Z[s0^+-1, s1^+-1].
    print(f"p = Y^2, the square the gauge trades for: {GENERIC_MODULUS == generic}")

    print("\n=== the specialization homomorphism ===")
    print("s0 -> t, s1 -> w t^-1, hence t0 -> t^2 and t1 -> w^2 t^-2:")
    for name, q in [("t0", mon(2, 0)), ("t1", mon(0, 2)), ("s0 s1", mon(1, 1))]:
        print(f"  {name}  ->  {specialize(q)}")
    print(f"  (t0 - 1)(1 - t1)  ->  {specialize(generic)}")


if __name__ == "__main__":
    main()
