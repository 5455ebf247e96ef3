"""``ShardPool``: persistent shard-hosting worker processes.

``SweepExecutor``'s pool maps stateless jobs; shards are the opposite —
a shard's :class:`~repro.cluster.shard.ShardRuntime` holds live node
state (token buckets, RNG streams, queued arrivals and completions)
that cannot cross a process boundary mid-run, so each shard must *live*
in one worker for the whole run.  The pool follows the
executor's conventions (``spawn`` context for state isolation,
``resolve_workers`` for sizing, a serial in-process fallback that runs
the identical code) but keeps dedicated workers connected by pipes:

* worker ``w`` hosts shards ``{s : s % W == w}`` — a static assignment,
  fixed before any work starts, so placement never depends on timing;
* one round trip per round per worker: the coordinator scatters each
  worker's inbound messages, workers advance all their shards
  ``round_interval`` seconds, and gather returns the emitted traffic —
  the only per-round IPC, sized by bus chatter rather than event count.

A worker failure surfaces as a :class:`ShardWorkerError` — carrying the
remote traceback when the worker raised, naming the pipe error when it
died — and the pool tears every worker down before raising, including
when a worker dies before the pool finished starting.

:func:`make_shard_pool` sizes a pool from ``config.workers``.
:func:`~repro.cluster.kernel.run_cluster` only ever builds the serial
one itself; worker processes run a cluster only when a caller builds
them and passes them in.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback

from repro.cluster.shard import ShardRuntime
from repro.engine.sweep import resolve_workers

__all__ = ["ShardPool", "SerialShardPool", "ShardWorkerError", "make_shard_pool"]


class ShardWorkerError(RuntimeError):
    """A shard worker raised or died; the message says which and why."""


def _worker_main(conn, config, shard_ids) -> None:
    """Worker loop: build the assigned shards, then serve round/finalize."""
    try:
        runtimes = {sid: ShardRuntime(config, sid) for sid in shard_ids}
        conn.send(("ok", None))
        while True:
            op, payload = conn.recv()
            if op == "round":
                round_idx, per_shard = payload
                out = {
                    sid: runtimes[sid].advance_round(round_idx, per_shard.get(sid, []))
                    for sid in shard_ids
                }
                conn.send(("ok", out))
            elif op == "finalize":
                conn.send(("ok", {sid: runtimes[sid].finalize() for sid in shard_ids}))
            elif op == "reset":
                # Rebuild the shard runtimes for a fresh run (same shard
                # assignment, possibly different knobs) without paying
                # process spawn again — the warm-pool path benchmarks use.
                runtimes = {sid: ShardRuntime(payload, sid) for sid in shard_ids}
                conn.send(("ok", None))
            elif op == "close":
                # Fire-and-forget: the coordinator closes its end right
                # after sending, so acking would hit a dead pipe.
                break
            else:  # pragma: no cover - coordinator bug
                raise ValueError(f"unknown shard-pool op {op!r}")
    except (BrokenPipeError, EOFError):  # pragma: no cover - parent died
        pass
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class SerialShardPool:
    """The in-process fallback: every shard in the coordinator.

    Runs the exact same :class:`ShardRuntime` code path as the worker
    loop, so serial and parallel runs differ only in where shards live —
    the determinism tests pin that they do not differ in output.
    """

    workers = 1

    def __init__(self, config) -> None:
        self._shards = config.shards
        self._runtimes = {
            sid: ShardRuntime(config, sid) for sid in range(config.shards)
        }

    def reset(self, config) -> None:
        """Rebuild every shard runtime for a fresh run of ``config``."""
        if config.shards != self._shards:
            raise ValueError(
                f"pool hosts {self._shards} shards, config wants {config.shards}"
            )
        self._runtimes = {
            sid: ShardRuntime(config, sid) for sid in range(config.shards)
        }

    def round(self, round_idx: int, per_shard: dict) -> dict:
        return {
            sid: rt.advance_round(round_idx, per_shard.get(sid, []))
            for sid, rt in self._runtimes.items()
        }

    def finalize(self) -> dict:
        return {sid: rt.finalize() for sid, rt in self._runtimes.items()}

    def close(self) -> None:
        self._runtimes.clear()


class ShardPool:
    """Dedicated spawn workers, each hosting a fixed set of shards."""

    def __init__(self, config, workers: int, *, mp_context: str = "spawn") -> None:
        self.workers = workers
        self._shards = config.shards
        assignment = [
            tuple(s for s in range(config.shards) if s % workers == w)
            for w in range(workers)
        ]
        ctx = mp.get_context(mp_context)
        self._conns = []
        self._procs = []
        self._shards_of = []
        try:
            for shard_ids in assignment:
                if not shard_ids:
                    continue
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main, args=(child, config, shard_ids), daemon=True
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
                self._shards_of.append(shard_ids)
            self._exchange(())  # every worker's ready message
        except BaseException:
            self.close()
            raise

    def _exchange(self, requests) -> dict:
        """Send ``requests[i]`` to worker ``i``, then gather every
        worker's reply payload into one dict.

        Scatter-then-gather lets all workers compute concurrently.  A
        worker that raised, or whose pipe broke because it died, closes
        the pool and raises :class:`ShardWorkerError`.
        """
        out: dict = {}
        try:
            for conn, request in zip(self._conns, requests):
                conn.send(request)
            for conn in self._conns:
                status, payload = conn.recv()
                if status != "ok":
                    self.close()
                    raise ShardWorkerError(f"shard worker failed:\n{payload}")
                if payload:
                    out.update(payload)
        except (EOFError, ConnectionError) as exc:
            self.close()
            raise ShardWorkerError(f"shard worker died: {exc!r}") from exc
        return out

    def round(self, round_idx: int, per_shard: dict) -> dict:
        return self._exchange([
            ("round", (round_idx, {sid: per_shard[sid] for sid in ids if sid in per_shard}))
            for ids in self._shards_of
        ])

    def finalize(self) -> dict:
        return self._exchange([("finalize", None)] * len(self._conns))

    def reset(self, config) -> None:
        """Rebuild every worker's shard runtimes for a fresh run."""
        if config.shards != self._shards:
            raise ValueError(
                f"pool hosts {self._shards} shards, config wants {config.shards}"
            )
        self._exchange([("reset", config)] * len(self._conns))

    def close(self) -> None:
        conns, self._conns = self._conns, []
        procs, self._procs = self._procs, []
        for conn in conns:
            try:
                conn.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join()


def make_shard_pool(config, workers: int | None = None):
    """A pool for ``config``'s shards: serial fallback at 1, processes above.

    ``workers`` defaults to ``config.workers`` sized by
    :func:`~repro.engine.sweep.resolve_workers`; either way the shard
    count caps it.
    """
    if workers is None:
        workers = resolve_workers(config.workers)
    workers = min(workers, config.shards)
    if workers <= 1:
        return SerialShardPool(config)
    return ShardPool(config, workers)
