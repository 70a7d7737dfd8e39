#!/usr/bin/env python3
"""The two R-matrices and the identities that make them work.

The colored Alexander invariant comes from a 9x9 R-matrix acting on a pair of
3-dimensional strand spaces; Links-Gould comes from a 16x16 R-matrix on a
pair of 4-dimensional ones.  Both are sparse, both are invertible, and both
satisfy the Yang-Baxter equation, so sliding crossings past each other never
changes a computed value.  Each also satisfies a cubic minimal polynomial,
and the Links-Gould cubic specializes onto the colored Alexander cubic under
t0 = t^2, t1 = w^2 t^-2.  Finally the two share a denominator-cleared
skein-pair relation, the engine behind the equality of the invariants.

The published Links-Gould matrix needs the square root Y of
p = (t0 - 1)(1 - t1).  Conjugating it by diag(1, 1, 1, Y^-1) on each
strand removes Y from every entry without changing any closure value.
"""

from braidinv.rep import (
    ado_cubic_coeffs,
    build_ado3_r,
    build_ado3_r_inverse,
    build_lg_r,
    build_lg_r_specialized,
    lg_cubic_coeffs,
    lg_specialized_cubic_coeffs,
)
from braidinv.ring import GENERIC_MODULUS
from braidinv.verify import (
    check_cubic_ado,
    check_ishii_relation,
    check_skein_lg,
    check_yang_baxter,
)


def main() -> None:
    r9 = build_ado3_r()
    r16 = build_lg_r()
    print("=== shapes and sparsity ===")
    print(f"colored Alexander R: {r9.size}x{r9.size}, {r9.nnz()} nonzero entries")
    print(f"Links-Gould R:       {r16.size}x{r16.size}, {r16.nnz()} nonzero entries")

    print("\nA few colored Alexander entries (row, col, value):")
    for row, col, val in list(r9.entries())[:5]:
        print(f"  ({row}, {col})  {val}")

    print("\n=== inverses are exact ===")
    rinv = build_ado3_r_inverse()
    prod = r9 @ rinv
    diag_ok = all(row == col and str(val) == "(1)" for row, col, val in prod.entries())
    print(f"R @ R^-1 is the identity: {diag_ok}")

    print("\n=== cubic minimal polynomials ===")
    print(check_cubic_ado().line())
    print(check_skein_lg().line())
    print(f"  colored Alexander coefficients: {[str(c) for c in ado_cubic_coeffs()]}")
    print(f"  Links-Gould coefficients:       {[str(c) for c in lg_cubic_coeffs()]}")
    match = lg_specialized_cubic_coeffs() == ado_cubic_coeffs()
    print(f"  specialized Links-Gould coefficients equal the colored Alexander ones: {match}")

    print("\n=== the gauge D = diag(1, 1, 1, Y^-1) ===")
    print(f"p = Y^2 = {GENERIC_MODULUS}")
    print("The four Y cells o*Y each move one v_3; D^-1 R D holds o where the")
    print("column has the extra v_3 and o*p where the row has it (x = 4i + j is v_i v_j):")
    for row, col in [(6, 12), (12, 6), (9, 12), (12, 9)]:
        print(f"  ({row}, {col})  {r16.get(row, col)}")

    def n3(x):
        return (x >> 2 == 3) + (x & 3 == 3)

    # undoing the gauge multiplies cell (r, c) by Y^(n3(c) - n3(r)); the
    # published matrix is symmetric, so p^n3(c) R[r, c] = p^n3(r) R[c, r]
    sym = all(GENERIC_MODULUS ** n3(col) * val
              == GENERIC_MODULUS ** n3(row) * r16.get(col, row)
              for row, col, val in r16.entries())
    print(f"symmetric once the gauge is undone: {sym}")

    print("\n=== Yang-Baxter on three strands ===")
    for kind in ["ado3", "lg", "lg-spec"]:
        print(f"  {check_yang_baxter(kind).line()}")

    print("\n=== the skein-pair relation ===")
    print(check_ishii_relation(specialized=False).line())
    print(check_ishii_relation(specialized=True).line())

    print("\n=== the specialization, entry by entry ===")
    spec = build_lg_r_specialized()
    sample = [(0, 0), (5, 5), (12, 12)]
    for row, col in sample:
        print(f"  LG({row},{col}) = {r16.get(row, col)}   ->   {spec.get(row, col)}")


if __name__ == "__main__":
    main()
