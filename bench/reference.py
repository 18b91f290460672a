"""The fixed reference computation that every timed metric is divided by.

It uses only the standard library and mimics the arithmetic mix of mipoly:
exact `Fraction` arithmetic (Horner evaluation and divided differences with
growing denominators) and big-integer multiply and mod.  It imports no
mipoly code, so a change to the program cannot change the reference.

Run as a script it prints one line: the duration in seconds of one pass,
taken as the mean of REPEATS timed passes in this fresh process.

Never change this file after a baseline has been taken: every `ref`
metric is expressed in units of its duration, so a change rescales them all.
"""

import sys
import time
from fractions import Fraction

REPEATS = 3


def _fraction_part() -> Fraction:
    # Newton divided differences through 40 rational points, then Horner
    # evaluation of the resulting form at a rational argument; four data sets.
    total = Fraction(0)
    for shift in range(4):
        xs = [Fraction(k, k + 3 + shift) for k in range(40)]
        ys = [Fraction((-1) ** k * (k * k + 1), 2 * k + 7 + shift) for k in range(40)]
        coeffs = list(ys)
        for level in range(1, len(xs)):
            for i in range(len(xs) - 1, level - 1, -1):
                coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
        acc = Fraction(0)
        z = Fraction(5, 7)
        for i in range(len(xs) - 1, -1, -1):
            acc = acc * (z - xs[i]) + coeffs[i]
        total += acc
    return total


def _bigint_part() -> int:
    modulus = 3**1500 + 7
    x = 5**900 + 11
    for _ in range(600):
        x = (x * x + 12345) % modulus
    return x


def reference_pass() -> tuple:
    return _fraction_part(), _bigint_part()


def main() -> int:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_pass()
        samples.append(time.perf_counter() - start)
    print(repr(sum(samples) / len(samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
