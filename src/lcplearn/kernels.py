"""Statevector update kernels.

One vectorised numpy implementation of each hot loop: the single-qubit
butterfly, the diagonal multiply, and the swap that X and CX are.  X and
CX permute amplitudes, so `apply_flip` exchanges two slices and computes
no amplitude; every other gate is a 2x2 product through `apply_unitary`,
which also takes a 4x4 on two qubits.

All kernels mutate the amplitude array in place.  The butterfly takes a
bit position (0 = least significant bit of the basis index);
`apply_unitary` and `apply_flip` take 1-based qubits of a register
(qubit 1 the most significant bit) and are the only places that map
qubits to bits.
"""

import numpy as np


def apply_single(amps: np.ndarray, bit: int, u: np.ndarray) -> None:
    """Apply a 2x2 unitary to the qubit at `bit`, in place."""
    view = amps.reshape(-1, 2, 1 << bit)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    view[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1


# No gate reaches it: CX, the only two-qubit gate, goes through
# `apply_flip`, and only a 4x4 passed to `apply_unitary` by hand does.
# perfbench patches and calibrates it; drop it together with those
# readers in the next change to the benchmark.
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


def apply_unitary(amps: np.ndarray, width: int, qubits: tuple, u: np.ndarray) -> None:
    """Apply the 2x2 or 4x4 unitary `u` on `qubits` of a `width`-qubit
    register to every 2^width-amplitude row of the C-contiguous `amps`, in
    place.  Qubit 1 is the most significant bit; the first of two qubits
    is u's high bit."""
    if len(qubits) == 1:
        apply_single(amps, width - qubits[0], u)
    else:
        apply_two(amps, width - qubits[0], width - qubits[1], u)


def apply_flip(amps: np.ndarray, width: int, qubits: tuple) -> None:
    """Apply X on `qubits` = (q,), or CX on `qubits` = (control, target), of
    a `width`-qubit register to every 2^width-amplitude row of the
    C-contiguous `amps`, in place, by swapping the two slices the gate
    exchanges.  Qubit 1 is the most significant bit."""
    if len(qubits) == 1:
        view = amps.reshape(-1, 2, 1 << (width - qubits[0]))
        a, b = view[:, 0, :], view[:, 1, :]
    else:
        control, target = width - qubits[0], width - qubits[1]
        hi, lo = max(control, target), min(control, target)
        view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        if control > target:
            a, b = view[:, 1, :, 0, :], view[:, 1, :, 1, :]
        else:
            a, b = view[:, 0, :, 1, :], view[:, 1, :, 1, :]
    a0 = a.copy()
    a[...] = b
    b[...] = a0


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
