"""The eigengap bounds behind the miner's pruning rules.

Deleting one variable from a set raises the smallest eigenvalue by at most
the norm of that variable's correlation column (interlacing plus a rank-one
argument). Chaining those per-column bounds yields two aggregate caps on
linear gain, and the size cap floor((1+delta)/delta) that lets the miner
ignore large candidate sets outright.
"""

import numpy as np

from multipoles import bounds


def main():
    print("== per-column chain on an equicorrelated triple (r = -0.5) ==")
    a = np.full((3, 3), -0.5)
    np.fill_diagonal(a, 1.0)
    rep = bounds.bound_report(a)
    print("  col   delta_lambda   ||C_j||_2   ||C_j||_1")
    for col in rep.columns:
        print(
            f"  {col.column:>3}   {col.delta_lambda:>12.4f}   "
            f"{col.c_norm2:>9.4f}   {col.c_norm1:>9.4f}"
        )
    print(f"  gain = min delta_lambda       {rep.gain:.4f}")
    print(f"  corollary-1 bound             {rep.corollary1_bound:.4f}")
    print(f"  corollary-2 bound             {rep.corollary2_bound:.4f}")
    print(f"  size cap 1/(k-1)              {rep.size_cap_bound:.4f}")

    print("\n== violations over random matrices ==")
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(500):
        g = rng.normal(size=(5, 8))
        cov = g @ g.T
        d = np.sqrt(np.diag(cov))
        mats.append(cov / np.outer(d, d))
    violated = bounds.stack_report_rows(np.stack(mats))[-1]
    print(f"  500 random 5x5 matrices: {int(violated.sum())} with a proved-bound violation")

    print("\n== largest set worth examining at gain threshold delta ==")
    for delta in (0.1, 0.15, 0.2, 0.3, 0.5):
        print(f"  delta = {delta:4.2f} -> max size {bounds.max_size_for_gain(delta)}")


if __name__ == "__main__":
    main()
