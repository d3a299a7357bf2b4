"""Accumulator truncation shared by both accelerators.

The datapaths multiply signed 32-bit operands into the exact 64-bit
signed product (no intermediate truncation) and accumulate with 64-bit
wrap-around; a convolution output is then narrowed to one 32-bit word.
"""

import enum

from .bits import MASK32

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


class Truncation(enum.Enum):
    WRAP = "wrap"
    SATURATE = "saturate"


def truncate_accumulators(accums, policy):
    """Narrow a list of signed 64-bit accumulators to 32-bit words."""
    if policy is Truncation.SATURATE:
        return [max(INT32_MIN, min(INT32_MAX, a)) & MASK32 for a in accums]
    return [a & MASK32 for a in accums]
