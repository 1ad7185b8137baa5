"""Named, independently addressable random streams.

Every source of randomness in a run is derived from one master seed plus a
stream name, so the same world (mobility, clustering) can be replayed under
different decision policies, and so any (frame, episode, step)-indexed draw
can be regenerated without replaying the sequence that led to it.
"""

import numpy as np

# Stream ids. Keeping these stable keeps old runs reproducible.
MOBILITY = "mobility"
CLUSTERING = "clustering"
FADING = "fading"
EXPLORATION = "exploration"
INIT = "init"


_KEY_CACHE: dict[tuple[int, str], tuple[int, int]] = {}


def stream_key(master_seed: int, name: str) -> np.ndarray:
    """128-bit Philox key for (master_seed, stream name)."""
    cached = _KEY_CACHE.get((master_seed, name))
    if cached is None:
        ss = np.random.SeedSequence([int(master_seed)] + [ord(ch) for ch in name])
        cached = tuple(int(v) for v in ss.generate_state(2, dtype=np.uint64))
        _KEY_CACHE[(master_seed, name)] = cached
    return np.array(cached, dtype=np.uint64)


def sequential_stream(master_seed: int, name: str) -> np.random.Generator:
    """A generator consumed in program order (exploration, weight init)."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, name)))


def counter_stream(master_seed: int, name: str, counter: tuple[int, ...]) -> np.random.Generator:
    """A generator addressed by an explicit counter, e.g. (frame, episode, step).

    Draws depend only on (master_seed, name, counter) and the order of calls
    made on the returned generator, never on what was drawn at other counters.
    """
    return AddressedStream(master_seed, name).at(counter)


class AddressedStream:
    """One Philox generator of a named stream, moved to a counter address per use.

    Philox increments word 0 of its 256-bit counter as values are consumed, so
    the address components occupy words 1..3 and word 0 starts at 0 and runs
    free; distinct addresses cannot collide before 2**64 draws. at(counter)
    sets those words and empties the output buffer, which leaves the generator
    exactly as a fresh Philox built at that counter. Every at() call returns
    the same generator, so a caller must finish drawing before the next call.
    """

    def __init__(self, master_seed: int, name: str):
        self._bit_generator = np.random.Philox(key=stream_key(master_seed, name))
        self._generator = np.random.Generator(self._bit_generator)
        self._state = self._bit_generator.state   # empty buffer, no cached 32-bit half

    def at(self, counter: tuple[int, ...]) -> np.random.Generator:
        if len(counter) > 3:
            raise ValueError("counter has at most 3 components")
        words = np.zeros(4, dtype=np.uint64)
        words[1:len(counter) + 1] = [int(v) for v in counter]
        self._state["state"]["counter"] = words
        self._bit_generator.state = self._state
        return self._generator
