"""Speed probe: a fixed kernel that tells how fast the machine runs at the moment.

The benchmark runs on a few cores of a shared host, and the speed of a core
moves with the load of the other tenants on it: on the 2-core x86_64 VM the
baseline was taken on, one `fig-b --seeds 100` call took anywhere from
0.27 s to 0.65 s within four minutes, and the probe below moved with it. Raw round
times measure the neighbours as much as pblr.

`run.py` runs the probe before the first round and after every round, and
reports each round's wall time rescaled to the probe's reference speed:

    round_s * probe.ref_s / mean(probe before, probe after)

The probe is the benchmark's own code and never calls pblr, so a change to
pblr moves the rescaled times as it would move raw times on a quiet machine.
Its parts are the kinds of work the workloads do, and each workload names
the parts that match it (`workloads.Workload.probe`): memory-bound work
such as fig-c's Monte Carlo loss blocks slows less than interpreter-bound
work when the neighbours are busy, so a probe of the wrong kind would
over-correct.
"""

import time

import numpy as np

# Median seconds of one pass of each part on the 2-core x86_64 (Xeon, KVM)
# VM of the committed baseline; they only set the unit, so rescaled times
# read as seconds there.
PART_REF_S = {"python": 0.023, "tiny": 0.020, "dense": 0.016, "stream": 0.023}
ALL_PARTS = tuple(PART_REF_S)


class Probe:
    def __init__(self, parts=ALL_PARTS):
        self.parts = tuple(parts)
        self.ref_s = sum(PART_REF_S[part] for part in self.parts)
        gen = np.random.default_rng(0)
        self.tiny = gen.standard_normal((8, 8))
        self.tiny_spd = self.tiny @ self.tiny.T + 8.0 * np.eye(8)
        mid = gen.standard_normal((200, 200))
        self.mid_spd = mid @ mid.T + 200.0 * np.eye(200)
        self.big = gen.standard_normal(4_000_000)  # 32 MB, beyond the caches
        self.kernels = {"python": self.python, "tiny": self.tiny_calls,
                        "dense": self.dense, "stream": self.stream}

    def python(self):
        """Interpreter-bound loop."""
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return acc

    def tiny_calls(self):
        """Many numpy calls on 8 x 8 arrays, like pblr's 15-point fits."""
        acc = 0.0
        for _ in range(800):
            chol = np.linalg.cholesky(self.tiny_spd)
            acc += float(np.linalg.solve(chol, self.tiny[:, 0]).sum())
        return acc

    def dense(self):
        """Dense linear algebra on 200 x 200 matrices."""
        return sum(float(np.linalg.cholesky(self.mid_spd)[-1, -1]) for _ in range(40))

    def stream(self):
        """Passes over an array larger than the caches."""
        return sum(float(np.exp(self.big).sum()) for _ in range(2))

    def __call__(self):
        """Seconds one pass of the probe's parts takes now."""
        start = time.perf_counter()
        acc = sum(self.kernels[part]() for part in self.parts)
        elapsed = time.perf_counter() - start
        if not np.isfinite(acc):
            raise RuntimeError("speed probe produced a non-finite value")
        return elapsed
