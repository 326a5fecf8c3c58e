"""Bit-reversal traversal order for cyclic rotations.

A rotation by k costs work proportional to L / 2**v(k), v = 2-adic
valuation, so visiting all L rotations in natural order costs O(L**2).
Visiting them in bit-reversed index order instead makes large valuations
common: exactly 2**j of the deltas have valuation j, and the total work
telescopes to O(L log L).
"""


def bitrev(width: int, j: int) -> int:
    """Reverse the low ``width`` bits of j; O(width), in one C-level pass
    over its zero-padded binary string."""
    if not 0 <= j < (1 << width):
        raise ValueError(f"index {j} outside [0, {1 << width})")
    return int(format(j, f"0{width}b")[::-1], 2)


class ShiftSchedule:
    """Iterator over the L-1 rotation deltas visiting every rotation once.

    Yields bitrev(i) - bitrev(i-1) for i = 1..L-1; ``current`` is the
    rotation in effect after applying the latest delta.  Deltas are signed;
    consumers reduce them modulo their own length.
    """

    def __init__(self, width: int):
        self.width = width
        self.length = 1 << width
        self.index = 0
        self.current = 0

    def __iter__(self) -> "ShiftSchedule":
        return self

    def __next__(self) -> int:
        return self.next_delta()

    def next_delta(self) -> int:
        """Advance to the next rotation and return the signed delta."""
        if self.index >= self.length - 1:
            raise StopIteration
        self.index += 1
        prev = self.current
        self.current = bitrev(self.width, self.index)
        return self.current - prev
