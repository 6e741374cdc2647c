"""Machine-speed calibration for a shared, noisy host.

On a shared virtual machine the same job's wall time can drift by half
over a few minutes as other tenants load the host.  The benchmark runs a
fixed kernel next to every job and every set-up probe and scales its times
by REFERENCE_S / (mean kernel time in the run), so that times read as
seconds on a machine where the kernel takes REFERENCE_S.

The kernel multiplies two small sparse polynomials: tuple words, dict
terms, int coefficients mod 32003.  That is the kind of work ttpkit's
reductions do, so host contention slows both alike; a plain integer loop
tracked it less well.  The kernel touches no ttpkit code and runs with
garbage collection held off, so a collection that a job's garbage makes
due cannot land in it.
"""

import gc
import time

P = 32003
ROUNDS = 1600
REFERENCE_S = 0.010  # about the kernel's time on the 2-vCPU host the baseline was measured on
_LEFT = {(i % 3, i * 7 % 3, i % 2): i * 7 + 11 for i in range(12)}
_RIGHT = {(i * 5 % 3, i % 3): i * 5 + 3 for i in range(9)}


def calibrate():
    """Seconds the fixed kernel takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            out = {}
            for w1, c1 in _LEFT.items():
                for w2, c2 in _RIGHT.items():
                    w = w1 + w2
                    acc = out.get(w)
                    out[w] = c1 * c2 % P if acc is None else (acc + c1 * c2) % P
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
