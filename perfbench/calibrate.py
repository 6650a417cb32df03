"""Machine-speed calibration.

The speed of a shared 2-vCPU VM drifts by up to 1.5x over tens of seconds,
in wall time and CPU time alike, and that drift was most of the spread
between runs of the same code.  So every timed phase interleaves a fixed
piece of pure-Python work, the kernel, with the library's work, and reports
its times scaled to the speed at which the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / (mean kernel time around it)

The speed also toggles within a run, within a second or less.  So a
kernel sample runs after every task, and a task is scaled by the WINDOW
samples on either side of it; a set-up by the samples just before and after
it.

The kernel shares no code with the library (Fraction elimination, integer
matrix products in a dict-driven breadth-first search, and compiling a
fixed source text), so a change to the library moves the reported numbers
as much as it moves the measured ones; only the machine's speed cancels.
"""

import time

from workloads import rank, words_up_to

# about the kernel's mean time between tasks on the 2-vCPU x86 VM with
# Python 3.11.7 of baseline.json
REFERENCE_S = 0.0035
WINDOW = 2

_MATRIX = [
    [3, -7, 2, 9, -4, 1],
    [-5, 8, 6, -2, 7, -9],
    [4, 1, -8, 5, -3, 6],
    [-6, 9, 3, -7, 2, -1],
    [8, -2, -5, 4, 9, 3],
    [1, 6, -9, -3, -8, 7],
    [-9, 4, 7, 8, 1, -5],
    [2, -3, 5, -6, 6, 8],
]
_GENS = (((2, 1), (1, 1)), ((1, 0), (0, -1)))
_SOURCE = '''
def facets(dim, rays, current):
    for k, h in enumerate(rays, dim):
        pos, neg, kept = [], [], []
        for y, tight in current:
            d = sum(a * b for a, b in zip(h, y))
            if d > 0:
                pos.append((y, tight, d))
            elif d < 0:
                neg.append((y, tight, d))
            else:
                kept.append((y, tight | 1 << k))
        current = kept + [(p, tp & tn) for p, tp, _ in pos for n, tn, _ in neg]
    return {y for y, _ in current}
''' * 4


def kernel():
    """One sample: the kernel's wall time in seconds."""
    t0 = time.perf_counter()
    rank(_MATRIX)
    words_up_to(_GENS, 5)
    compile(_SOURCE, "<calibrate>", "exec")
    return time.perf_counter() - t0


class Calibrator:
    """Kernel samples taken between tasks, one after every task, and the
    scales they give."""

    def __init__(self):
        self.samples = []
        self.marks = []  # per task: the number of samples taken before it

    def after(self):
        self.marks.append(len(self.samples))
        self.samples.append(kernel())

    def sample(self, count):
        self.samples.extend(kernel() for _ in range(count))

    def mean_s(self):
        return sum(self.samples) / len(self.samples)

    def scale(self):
        """Multiply a time measured while the samples ran by this to get it
        at reference speed."""
        return REFERENCE_S / self.mean_s()

    def scaled(self, times):
        """The task times of the after() calls, in order, at reference
        speed: each scaled by the WINDOW samples on either side of it."""
        out = []
        for t, j in zip(times, self.marks):
            near = self.samples[max(0, j - WINDOW):j + WINDOW]
            out.append(t * REFERENCE_S * len(near) / sum(near))
        return out
