import os

# One BLAS/OpenMP thread, set before numpy loads, as perfbench/run.py does:
# with one thread per core, small dense products and factorizations swing
# by an order of magnitude, and the timing release criterion reads them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from emdflow.transport import TransportProblem  # noqa: E402


def counted_calls(monkeypatch, module, name):
    """Record the positional arguments of every call of ``module.name``
    while the test runs."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def random_problem(rng, m, k, cost_lo=0.05, cost_hi=1.95):
    """Balanced random instance with unit total mass."""
    cost = rng.uniform(cost_lo, cost_hi, (m, k))
    supply = rng.uniform(0.2, 1.0, m)
    demand = rng.uniform(0.2, 1.0, k)
    return TransportProblem(cost=cost, supply=supply / supply.sum(),
                            demand=demand / demand.sum())
