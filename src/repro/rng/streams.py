"""Named, seeded random streams built on :class:`numpy.random.Generator`.

Reproducibility contract
------------------------
``StreamFactory(seed).stream(name)`` always returns a generator whose state
depends only on ``(seed, name)``.  Two factories with the same seed produce
identical streams for identical names, regardless of the order in which the
streams are requested.  This is what makes experiment repetitions and
regression tests deterministic.

:class:`RowStream` serves one stream as fixed-width rows drawn ahead in
blocks, for consumers that take one row per slot and sometimes look ahead.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

__all__ = ["derive_seed", "StreamFactory", "RowStream"]

#: Uniforms a :class:`RowStream` draws per refill, and the most a caller
#: should peek at once.  Counts of uniforms, not rows, so a wide stream
#: buffers no more memory than a narrow one.  A refill block (64 KiB)
#: stays below glibc's default 128 KiB mmap threshold: larger blocks,
#: once one is freed, raise that threshold and then come from the heap,
#: where their leftovers made a process's peak RSS jump by about a block
#: with unrelated allocation changes.  The block also stays in cache.
#: A thresholded stream draws its floats one block at a time for the
#: same reason: a whole-peek float temporary (4 MiB at a 2000-wide
#: paper-scale peek) made the mean-field repetition's peak RSS jump.
ROW_BLOCK_UNIFORMS = 2 ** 13
ROW_PEEK_UNIFORMS = 2 ** 19


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name.

    Uses BLAKE2b over the ``(root_seed, name)`` pair, so the mapping is
    stable across processes and Python versions (unlike ``hash()``).

    >>> derive_seed(7, "pu-activity") == derive_seed(7, "pu-activity")
    True
    >>> derive_seed(7, "a") != derive_seed(7, "b")
    True
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class StreamFactory:
    """Factory of independent, named random streams.

    Parameters
    ----------
    seed:
        Root seed for the whole experiment.  Any integer.

    Examples
    --------
    >>> factory = StreamFactory(seed=42)
    >>> su_rng = factory.stream("su-placement")
    >>> pu_rng = factory.stream("pu-placement")
    >>> float(su_rng.random()) != float(pu_rng.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was built from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the named stream.

        Calling this twice with the same name returns two generators in the
        *same initial state*; callers should request a stream once and keep
        it.
        """
        return np.random.default_rng(derive_seed(self._seed, name))

    def spawn(self, name: str) -> "StreamFactory":
        """Return a child factory whose streams are independent of this one.

        Used by the repetition harness: repetition ``i`` gets
        ``factory.spawn(f"rep-{i}")`` so that every repetition sees fresh but
        reproducible randomness in all components.
        """
        return StreamFactory(derive_seed(self._seed, f"spawn:{name}"))

    def __repr__(self) -> str:
        return f"StreamFactory(seed={self._seed})"


class RowStream:
    """A generator's uniforms handed out as fixed-width rows, one per slot.

    Row ``t`` holds exactly the ``width`` uniforms the ``t``-th
    ``generator.random(width)`` call would have returned: rows are drawn
    ahead in blocks (one ``random((rows, width))`` fill consumes the
    generator exactly like that many single-row calls), so a consumer can
    :meth:`peek` ahead and then :meth:`take` (or :meth:`skip`) exactly the
    rows it uses, and nothing is ever rewound.  :meth:`state` reports the
    generator state after exactly the taken rows.

    With a ``threshold``, each block is compared once as it is drawn and
    the rows are bool, ``uniform >= threshold``: for consumers that only
    ever ask that question of a draw (the mean-field blocking rows).  The
    generator is consumed exactly as without one.
    """

    def __init__(
        self,
        generator: np.random.Generator,
        width: int,
        threshold: Optional[float] = None,
    ) -> None:
        self._generator = generator
        self._width = int(width)
        self._threshold = threshold
        self._block_rows = max(1, ROW_BLOCK_UNIFORMS // max(1, self._width))
        #: Rows a caller may peek at once to stay within the memory bound.
        self.max_peek = max(1, ROW_PEEK_UNIFORMS // max(1, self._width))
        self._dtype = float if threshold is None else bool
        self._rows = np.empty((0, self._width), dtype=self._dtype)
        self._next = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` rows, shape ``(count, width)``, not consumed."""
        short = self._next + count - self._rows.shape[0]
        if short > 0:
            kept = self._rows.shape[0] - self._next
            rows = np.empty(
                (kept + max(short, self._block_rows), self._width),
                dtype=self._dtype,
            )
            rows[:kept] = self._rows[self._next :]
            if self._threshold is None:
                self._generator.random(out=rows[kept:])
            else:
                # One block of float draws at a time, so a long peek's
                # temporary stays a block; consecutive random() calls
                # consume the generator exactly like one.
                for start in range(kept, rows.shape[0], self._block_rows):
                    block = rows[start : start + self._block_rows]
                    np.greater_equal(
                        self._generator.random(block.shape),
                        self._threshold,
                        out=block,
                    )
            rows.setflags(write=False)  # callers get views: keep them intact
            self._rows = rows
            self._next = 0
        return self._rows[self._next : self._next + count]

    def take(self, count: int) -> np.ndarray:
        """Consume and return the next ``count`` rows."""
        rows = self.peek(count)
        self._next += count
        return rows

    def take_row(self) -> np.ndarray:
        """Consume and return the next row, shape ``(width,)``: ``take(1)[0]``
        without the intermediate ``(1, width)`` view."""
        if self._next == self._rows.shape[0]:
            self.peek(1)
        row = self._rows[self._next]
        self._next += 1
        return row

    def skip(self, count: int) -> None:
        """Consume the next ``count`` rows without handing them out."""
        if self._next + count > self._rows.shape[0]:
            self.peek(count)
        self._next += count

    def random(self, size: Union[int, Tuple[int, ...]]) -> np.ndarray:
        """One row shaped ``size``: the draw ``generator.random(size)`` makes
        (compared with the threshold, if the stream has one)."""
        return self.take_row().reshape(size)

    def state(self) -> Dict[str, Any]:
        """The generator state after exactly the taken rows."""
        bit_generator = copy.deepcopy(self._generator.bit_generator)
        untaken = self._rows.shape[0] - self._next
        bit_generator.advance(-untaken * self._width)
        return bit_generator.state
