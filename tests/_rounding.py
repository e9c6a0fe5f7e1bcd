"""Rounding-error bounds for the tests that compare two orders of the
same float64 arithmetic."""

import numpy as np

U = np.finfo(np.float64).eps / 2.0  # unit roundoff


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of k rounded
    operations (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Lemma 3.1).  A sum of k nonnegative terms in any order is
    within gamma_(k-1) of the exact sum, so two orders differ by at most
    2 gamma_k relative; a power within one ulp counts two roundings."""
    return k * U / (1.0 - k * U)
