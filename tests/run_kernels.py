"""The three exponent kernels at one (a2, k), and faults stated there
lifted onto the kernels' runs.

Every kernel (plgeom.lambda_exponents, floer._lifted_counts and
floer._brion_counts) takes (n, m1, a1, m2, b2s) and returns one n-tuple
per b2 = a2 + m2*n*k of the range b2s.  A check or a fault stated at one
term reads a kernel through ``at_k``; ``lifted`` turns a fault on that
per-term view into a run kernel to patch in, with a2 = b2 mod m2*n and
k = b2 div m2*n, so the fault hits the same (pair, k) of every label.
``floor_fault`` is a fault inside a kernel's own arithmetic: a b2 whose
floor division at one slot is one too large.
"""


def at_k(kernel):
    """(n, m1, a1, m2, a2, k) -> the kernel's n-tuple at b2 = a2 + m2*n*k,
    read through a one-element run."""

    def one(n, m1, a1, m2, a2, k):
        b2 = a2 + m2 * n * k
        (exps,) = kernel(n, m1, a1, m2, range(b2, b2 + 1))
        return exps

    return one


def lifted(kernel, fault):
    """The run kernel whose term at each b2 of a run is
    fault(at_k(kernel))(n, m1, a1, m2, b2 mod m2*n, b2 div m2*n)."""
    per_k = fault(at_k(kernel))

    def run(n, m1, a1, m2, b2s):
        w = m2 * n
        return [per_k(n, m1, a1, m2, b2 % w, b2 // w) for b2 in b2s]

    return run


class _HighFloor(int):
    """An int whose floor division is one more than int's."""

    def __floordiv__(self, other):
        return int(self) // other + 1


def floor_fault(b2: int, d: int) -> int:
    """b2 as an int whose sum b2 + d, and no other, floor-divides one too
    high.  In a run handed to ``plgeom.lambda_exponents`` it makes
    k2 = N2 // (m2*n) one too large at the slot j with m2*j = d, at this
    b2 alone; every other operation on it is int's."""

    class B2(int):
        def __add__(self, other):
            total = int(self) + other
            return _HighFloor(total) if other == d else total

    return B2(b2)
