"""A fixed reference computation, timed next to the workload, that gives
the machine's speed at that moment.

On a shared host the same code runs up to 60% slower for minutes at a
time, and the slow phases move the fastest calls as much as the typical
ones, so no statistic of the workload's own times is steady from one
run to the next.  A short chunk of fixed work timed between the
workload's steps slows down with it.  ``Reference.install`` puts a
wrapper on ``qasrl.env.CircuitEnv.step`` that runs one chunk before a
step whenever ``EVERY_S`` have passed since the last one; the chunks'
time is kept apart from the workload's.  ``speed`` is the machine's
speed over the chunks run so far: 1.0 when a chunk takes ``CHUNK_S``,
lower when the machine is slower.  A time multiplied by it is the time
the same work would have taken at the reference speed.

The chunk is the benchmark's own code and shares none with ``qasrl``:
density-matrix gates and observables of ``oracle`` (like the program's
simulator) and forward and backward passes of a small numpy MLP (like
its learner).  A change to the program leaves it unchanged.
"""

from time import perf_counter

import numpy as np

import oracle

# One chunk's time at the reference speed: about its median on the 2-core
# machine in README.md in a fast phase.  It only scales the reported times.
CHUNK_S = 1.0e-3
EVERY_S = 0.02  # at most one chunk per 20 ms of workload, about 5% extra wall time
_GATES = (("h", 0, None), ("cnot", 1, 0), ("x", 1, None), ("cnot", 0, 1)) * 2
_PASSES = 20
_rng = np.random.default_rng(12345)
_W1, _W2, _X = _rng.standard_normal((6, 32)), _rng.standard_normal((32, 12)), _rng.standard_normal((32, 6))
_DEVICE = oracle.Device(3)


def chunk() -> None:
    """The fixed work of one chunk."""
    rho = oracle.initial_state()
    for gate in _GATES:
        rho = _DEVICE.apply(rho, gate)
        _DEVICE.observe(rho)
    for _ in range(_PASSES):
        hidden = np.maximum(_X @ _W1, 0.0)
        grad_q = (hidden @ _W2 - 1.0) / len(_X)
        _ = hidden.T @ grad_q, _X.T @ ((grad_q @ _W2.T) * (hidden > 0))


class Reference:
    """Chunks of reference work, timed apart from the workload."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0
        self._next = 0.0
        self._restore = None

    def run(self, n: int) -> None:
        """Run and time ``n`` chunks now."""
        for _ in range(n):
            start = perf_counter()
            chunk()
            self.seconds += perf_counter() - start
        self.chunks += n

    @property
    def speed(self) -> float:
        return self.chunks * CHUNK_S / self.seconds

    def install(self) -> "Reference":
        """Interleave chunks with the workload's ``CircuitEnv.step`` calls."""
        import qasrl.env

        original = qasrl.env.CircuitEnv.step
        reference = self

        def step(env, action):
            if perf_counter() >= reference._next:
                reference.run(1)
                reference._next = perf_counter() + EVERY_S
            return original(env, action)

        step.__wrapped__ = original
        qasrl.env.CircuitEnv.step = step
        self._restore = original
        return self

    def uninstall(self) -> None:
        import qasrl.env

        qasrl.env.CircuitEnv.step = self._restore
