"""The n-torus gems built on permutation vertices.

For each dimension the genus at the published cyclic order follows the
closed formula 1 + (n+1)! (n-3) / 8 once n reaches 4, and for n = 4, 5, 6
the regular genus, the minimum over all cyclic orders, equals it.

Run: python3 demos/torus_family.py
"""

from gemkit import (audit_cycle_lengths, expected_genus, genus_for,
                    regular_genus, stated_permutation, torus_gem)


def main():
    print(f"{'n':>2} {'vertices':>9}  {'stated order':<18} {'genus':>6}  "
          f"{'regular':>7}  {'formula':>8}")
    for n in range(2, 7):
        g = torus_gem(n).graph
        best = regular_genus(g)
        if n < 4:
            perm = best.permutation
            formula = "-"
        else:
            perm = stated_permutation(n)
            formula = expected_genus(n)
        rep = genus_for(g, perm)
        order = ",".join(map(str, perm))
        print(f"{n:>2} {g.num_vertices:>9}  ({order:<16}) {str(rep.genus):>6}"
              f"  {str(best.genus):>7}  {str(formula):>8}")

    gem = torus_gem(5)
    print()
    print("cycle-length audit for n = 5 (all pairs 4s and 6s, "
          f"consecutive pairs of the stated order all 4s): "
          f"{audit_cycle_lengths(gem)}")


if __name__ == "__main__":
    main()
