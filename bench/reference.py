"""Fixed reference task that measures how fast the machine is right now.

    python3 bench/reference.py

``bench/run.py`` runs it as a child before every set-up command and every
untraced pass, and divides each timing by the reference time measured
just before it, so that the reported times do not follow the speed of a
shared host. It uses only the standard library and numpy, never
``treemkl``, so no change to the package changes it. Its mix follows the
CLI's: interpreter start-up and the numpy import, BLAS products and
element-wise ``exp`` as in the kernels, a pure-Python loop as in the dual
solver's pair updates, and passes over a 64 MB array, larger than any
cache, as in the cross-tensor build. It exits 1 if the result is not the
expected one, so a broken numpy cannot pass for a fast machine.
"""

import sys

import numpy as np

rng = np.random.default_rng(0)
x = rng.standard_normal((160, 160))
for _ in range(80):
    x = np.exp(-np.abs(x @ x.T) / 160.0)
big = rng.standard_normal(1_000_000)
for _ in range(4):
    big = np.sqrt(big * big + 1.0) - 0.5
s = 0
for i in range(200_000):
    s += i * i % 7
huge = np.ones(8_000_000)
for _ in range(4):
    huge += 1.0
ok = (np.isfinite(x).all() and np.isfinite(big).all() and s == 399_999
      and huge[0] == huge[-1] == 5.0)
sys.exit(0 if ok else 1)
