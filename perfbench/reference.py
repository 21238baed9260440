"""A fixed piece of work whose CPU time tracks how fast the host runs.

    python3 perfbench/reference.py

It starts like a vulgraph command, by importing numpy, and then runs a
mix like the program's: Python string and dict work, many small matrix
products driven from Python, and a few larger ones. It does not touch
vulgraph, so no change to the program moves its time. The benchmark runs
it between rounds and scales its gated times by it (see README.md).
"""

import numpy as np

rng = np.random.default_rng(0)
text = " ".join(f"v{i} = v{i - 1} * {i % 7};" for i in range(1, 4000))
for _ in range(24):
    counts: dict[str, int] = {}
    for token in text.replace(";", " ;").split():
        counts[token] = counts.get(token, 0) + 1
w = rng.standard_normal((32, 32))
x = rng.standard_normal((8, 32))
for _ in range(20000):
    x = np.tanh(x @ w) * 0.5 + x * 0.5
a = rng.standard_normal((300, 300))
for _ in range(100):
    b = a @ a.T
    a = b / np.abs(b).max()
