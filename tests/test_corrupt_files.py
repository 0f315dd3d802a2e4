"""Damaged files: every reader either returns or raises ValueError.

A checkpoint, an EVT1 file, a CSV event file, a PGM and a PPM are each
truncated, or have one byte flipped, at positions hypothesis picks. Half of
the positions fall in the first 512 bytes, where the headers and the
checkpoint's config are parsed. Any exception other than ValueError (the
CLI turns those into ``error:`` and exit 1) fails the test."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hess.events import make_stream, read_events, write_events
from hess.imgio import read_pgm, read_ppm, write_pgm, write_ppm
from hess.network import NetworkConfig, build, load_checkpoint, save_checkpoint

READERS = {"checkpoint": load_checkpoint, "evt1": read_events, "csv": read_events,
           "pgm": read_pgm, "ppm": read_ppm}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """format -> (path of a damaged copy, bytes of the intact file)."""
    d = tmp_path_factory.mktemp("originals")
    g = np.random.default_rng(3)
    n = 40
    stream = make_stream(20, 12, g.integers(0, 20, n), g.integers(0, 12, n),
                         np.sort(g.integers(0, 10**6, n)), g.choice([-1, 1], n))
    net = build(NetworkConfig(scales=((2, 4), (4, 8)), timesteps=2, bins=2))
    save_checkpoint(net, d / "net.ckpt")
    write_events(stream, d / "ev.evt1")
    write_events(stream, d / "ev.csv")
    write_pgm(g.integers(0, 256, (5, 7)).astype(np.uint8), d / "im.pgm")
    write_ppm(g.integers(0, 256, (4, 6, 3)).astype(np.uint8), d / "im.ppm")
    files = {"checkpoint": "net.ckpt", "evt1": "ev.evt1", "csv": "ev.csv",
             "pgm": "im.pgm", "ppm": "im.ppm"}
    return {fmt: (d / f"damaged_{name}", (d / name).read_bytes())
            for fmt, name in files.items()}


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fmt=st.sampled_from(sorted(READERS)), flip=st.integers(0, 255),
       where=st.one_of(st.integers(0, 511), st.integers(0, 2**31)))
def test_damaged_file_reads_or_raises_value_error(originals, fmt, flip, where):
    # flip 0 truncates the file to its first `where` bytes; any other value
    # is XORed into the byte at `where`
    path, data = originals[fmt]
    where %= len(data)
    if flip:
        data = data[:where] + bytes([data[where] ^ flip]) + data[where + 1:]
    else:
        data = data[:where]
    path.write_bytes(data)
    try:
        READERS[fmt](path)
    except ValueError:
        pass
