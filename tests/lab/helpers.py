"""Picklable task functions and store helpers for the lab tests.

The task functions must live in an importable module (not a test body)
so worker processes can unpickle them by reference.
"""

from __future__ import annotations

from pathlib import Path

from repro.lab import ArtifactStore, ProofCache

#: The store core's two codecs, by name.
CODECS = {"pickle": ArtifactStore, "json": ProofCache}


def codec_stores(root: Path) -> list[tuple[str, ArtifactStore]]:
    """One store per codec, each under ``root/<codec name>``."""
    return [(name, cls(Path(root) / name)) for name, cls in CODECS.items()]


def put_entry(store: ArtifactStore, key: str, worker, i: int,
              payload: str = "") -> None:
    """One writer's entry for ``key``: the value carries the writer's
    identity, so same-key writers race distinct bytes into the store
    (for the pickle codec, distinct artifacts *and* sidecar digests)."""
    store.put(key, {"holds": True, "worker": worker, "i": i,
                    "payload": payload})


def square(x: int) -> int:
    return x * x


def add_seeded(x: int, seed: int = 0) -> dict:
    return {"x": x, "seed": seed, "value": x + seed}


def combine(dep_results: dict | None = None, scale: int = 1) -> int:
    """Sums its dependency values (a pass_deps consumer)."""
    return scale * sum(dep_results.values())


def touch_and_square(x: int, marker_dir: str) -> int:
    """Counts executions via files, so tests can see cache hits."""
    path = Path(marker_dir) / f"ran-{x}"
    count = int(path.read_text()) if path.exists() else 0
    path.write_text(str(count + 1))
    return x * x


def fail_until(marker_dir: str, succeed_at: int = 3) -> str:
    """Fails until the attempt counter reaches ``succeed_at``."""
    path = Path(marker_dir) / "attempts"
    count = int(path.read_text()) if path.exists() else 0
    count += 1
    path.write_text(str(count))
    if count < succeed_at:
        raise RuntimeError(f"transient failure #{count}")
    return f"succeeded on attempt {count}"


def always_fail() -> None:
    raise ValueError("this job always fails")


def raise_keyboard_interrupt() -> None:
    """Simulates Ctrl-C landing inside a job (pool teardown)."""
    raise KeyboardInterrupt()


def spin(seconds: float) -> str:
    import time
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass
    return "spun"


def tiny_flow(words: int = 1, seed: int = 2008) -> dict:
    from repro.lab.tasks import ced_flow_task
    return ced_flow_task("tiny", words=words, seed=seed)
