"""Host-speed calibration for the benchmark's timed runs.

The benchmark runs on shared virtual machines whose speed drifts by 20 % and
more over minutes, for every kind of code alike: a fixed pure-Python loop,
small numpy calls and the set-up of a fresh interpreter all slow down and
speed up together.  A timed run therefore times this fixed kernel after every
process it launches, and scales each process's times by

    REF_WALL_S / mean kernel wall time just before and after it   (wall, set-up)
    REF_CPU_S / mean kernel CPU time just before and after it     (CPU)

so that they read as on a host where the kernel takes the reference time.
The kernel runs in the runner process, never in a pass process, and uses
nothing of smoothfem: a change to the program cannot change it.  Its mix
follows smoothfem's: interpreted loops over dicts and tuples, many calls on
small arrays, a SuperLU factorization and vectorized array arithmetic, all
single-threaded.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# about the kernel's median times on the reference host (2 vCPUs of a shared
# Xeon host under KVM; see NOTES.md); they only set the scale of the times
REF_WALL_S = 0.35
REF_CPU_S = 0.35


def _interpreted():
    table = {}
    items = []
    for i in range(130000):
        key = i % 251
        table[key] = table.get(key, 0) + i
        items.append((key, 0.5 * i))
    items.sort()
    return len(items) + len(table)


def _small_arrays():
    a = np.arange(64.0).reshape(8, 8) / 64.0 + np.eye(8)
    total = 0.0
    for _ in range(4200):
        b = a @ a
        total += np.einsum("ij,jk->ik", a, b)[0, 0]
        total += np.linalg.solve(a, b[:, 0])[0]
    return total


def _sparse_lu():
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(110, 110))
    eye = sp.identity(110)
    a = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
    lu = spla.splu(a)
    return lu.solve(np.ones(a.shape[0]))[0]


def _vectorized():
    x = np.linspace(0.0, 1.0, 200_000)
    total = 0.0
    for k in range(7):
        y = np.sin((3.0 + k) * x) * np.exp(-x)
        total += float(np.sqrt(x * x + y * y).sum() + np.cumsum(y)[-1])
    return total


def measure():
    """Wall and CPU seconds of one run of the fixed kernel."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _interpreted()
    _small_arrays()
    _sparse_lu()
    _vectorized()
    return {"wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0}
