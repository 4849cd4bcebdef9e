"""Statevector update kernels.

One vectorised numpy implementation of each hot loop: the single-qubit
butterfly, the two-qubit 4x4 update and the diagonal multiply.

All kernels mutate the amplitude array in place.  Qubit positions are
given as bit positions (0 = least significant bit of the basis index).
"""

import numpy as np


def apply_single(amps: np.ndarray, bit: int, u: np.ndarray) -> None:
    """Apply a 2x2 unitary to the qubit at `bit`, in place."""
    view = amps.reshape(-1, 2, 1 << bit)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    view[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1


def apply_two(amps: np.ndarray, b1: int, b2: int, u: np.ndarray) -> None:
    """Apply a 4x4 unitary to bits b1 (row-major high bit) and b2, in place."""
    p_hi, p_lo = (b1, b2) if b1 > b2 else (b2, b1)
    view = amps.reshape(-1, 2, 1 << (p_hi - p_lo - 1), 2, 1 << p_lo)
    if b1 > b2:
        slices = [view[:, r >> 1, :, r & 1, :] for r in range(4)]
    else:
        slices = [view[:, r & 1, :, r >> 1, :] for r in range(4)]
    cols = [s.copy() for s in slices]
    for r in range(4):
        slices[r][:] = u[r, 0] * cols[0] + u[r, 1] * cols[1] + u[r, 2] * cols[2] + u[r, 3] * cols[3]


def apply_signs(amps: np.ndarray, signs: np.ndarray) -> None:
    """Multiply amplitudes elementwise by a +-1 diagonal, in place."""
    amps *= signs


# Read only by perfbench's provenance line and kernel calibration; drop
# them together with those readers in the next change to the benchmark.
BACKEND = "numpy"
HAVE_NUMBA = False
apply_single_numpy = apply_single
apply_two_numpy = apply_two
apply_signs_numpy = apply_signs
