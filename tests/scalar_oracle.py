"""Test-only per-entry dispatch oracle for the epoch kernel.

:class:`ScalarSimulation` runs every ready entry through its own
callback instead of handing consecutive same-handler runs to the
handler's batch form.  Grouped dispatch must be observationally
identical to this, so parity tests run a workload under both and
compare traces, counters and recorded fingerprints.
"""

from repro.simkernel import Simulation


class ScalarSimulation(Simulation):
    """A :class:`Simulation` whose grouped dispatch runs one entry."""

    def _dispatch_group(self, batch_fn, func, owner, first, ready, idx):
        first.executed = True
        self._live -= 1
        self._executed += 1
        first.callback(*first.args)
        return idx
