"""Event-stream records and file I/O.

Streams carry (x, y, t, p) camera events sorted by timestamp. Two file
formats are supported:

* EVT1 binary, little-endian: magic ``EVT1``, u32 width, u32 height,
  u64 event count, then per event u16 x, u16 y, u64 t (microseconds),
  i8 polarity (-1/+1), i8 padding (0).
* CSV with header line ``x,y,t,p``.

Round trips are bit-exact; malformed files are rejected with the index of
the offending record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"EVT1"
_HEADER = struct.Struct("<4sIIQ")
_EVENT_DTYPE = np.dtype([("x", "<u2"), ("y", "<u2"), ("t", "<u8"),
                         ("p", "i1"), ("pad", "i1")])


@dataclass
class EventStream:
    """Events plus the sensor geometry they were recorded on."""

    width: int
    height: int
    events: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=_EVENT_DTYPE))

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("sensor geometry must be positive")
        self.events = np.asarray(self.events, dtype=_EVENT_DTYPE)
        self.validate()

    def __len__(self):
        return len(self.events)

    @property
    def xs(self):
        return self.events["x"].astype(np.int64)

    @property
    def ys(self):
        return self.events["y"].astype(np.int64)

    @property
    def ts(self):
        return self.events["t"].astype(np.int64)

    @property
    def ps(self):
        return self.events["p"].astype(np.int64)

    def validate(self):
        ev = self.events
        if len(ev) == 0:
            return
        bad = ((ev["x"] >= self.width) | (ev["y"] >= self.height)).nonzero()[0]
        if len(bad):
            raise ValueError(f"event {bad[0]} outside sensor geometry "
                             f"{self.width}x{self.height}")
        p = ev["p"]
        bad = ((p != 1) & (p != -1)).nonzero()[0]
        if len(bad):
            raise ValueError(f"event {bad[0]} has polarity {p[bad[0]]}, expected -1 or +1")
        t = ev["t"]
        bad = (t > 2**63 - 1).nonzero()[0]
        if len(bad):
            raise ValueError(f"event {bad[0]} has t = {t[bad[0]]}, above 2**63 - 1")
        dec = (t[1:] < t[:-1]).nonzero()[0]
        if len(dec):
            raise ValueError(f"event {dec[0] + 1} has decreasing timestamp")

    def slice(self, start, stop):
        """Events start..stop-1 as a read-only view. A window of a valid
        stream is valid, so it is neither validated again nor copied."""
        if not 0 <= start <= stop <= len(self):
            raise ValueError(f"slice {start}..{stop} outside the stream's "
                             f"0..{len(self)}")
        window = object.__new__(EventStream)
        window.width, window.height = self.width, self.height
        window.events = self.events[start:stop]
        window.events.flags.writeable = False
        return window


def make_stream(width, height, xs, ys, ts, ps):
    """Assemble a stream from parallel coordinate arrays. A value that is
    not a whole number, or does not fit its EVT1 field, is rejected, naming
    the event, before the cast could truncate or wrap it."""
    ev = np.zeros(len(xs), dtype=_EVENT_DTYPE)
    for name, values in (("x", xs), ("y", ys), ("t", ts), ("p", ps)):
        arr = np.asarray(values)
        # floats, and a list with an int beyond int64 (which comes back float
        # or object): check its exact Python numbers instead
        values = arr if arr.dtype.kind in "biu" else np.array(values, dtype=object)
        if values.dtype == object:
            bad = next((i for i, v in enumerate(values) if not _whole(v)), None)
            if bad is not None:
                raise ValueError(f"event {bad} has {name} = {values[bad]}, "
                                 "not a whole number")
        lim = np.iinfo(_EVENT_DTYPE[name])
        bad = np.nonzero((values < lim.min) | (values > lim.max))[0]
        if len(bad):
            raise ValueError(f"event {bad[0]} has {name} = {values[bad[0]]}, "
                             f"outside the EVT1 field range {lim.min}..{lim.max}")
        ev[name] = values
    return EventStream(width, height, ev)


def _whole(v):
    try:
        return v == int(v)
    except (OverflowError, ValueError):   # inf, nan
        return False


def write_events(stream: EventStream, path):
    path = str(path)
    if path.endswith(".csv"):
        with open(path, "w") as f:
            f.write("x,y,t,p\n")
            for e in stream.events:
                f.write(f"{e['x']},{e['y']},{e['t']},{e['p']}\n")
        return
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, stream.width, stream.height, len(stream.events)))
        f.write(stream.events.tobytes())


def read_events(path) -> EventStream:
    path = str(path)
    if path.endswith(".csv"):
        return _read_csv(path)
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, width, height, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    body = raw[_HEADER.size:]
    if len(body) != count * _EVENT_DTYPE.itemsize:
        got = len(body) // _EVENT_DTYPE.itemsize
        raise ValueError(f"{path}: truncated at record {got} of {count}")
    ev = np.frombuffer(body, dtype=_EVENT_DTYPE).copy()
    bad = np.nonzero(ev["pad"] != 0)[0]
    if len(bad):
        raise ValueError(f"{path}: record {bad[0]} has nonzero padding")
    return EventStream(width, height, ev)


def _read_csv(path):
    with open(path) as f:
        header = f.readline().strip()
        if header != "x,y,t,p":
            raise ValueError(f"{path}: expected header 'x,y,t,p', got {header!r}")
        rows = []
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}: record {i} malformed")
            rows.append(tuple(int(v) for v in parts))
    if not rows:
        # CSV carries no geometry header; an empty file gives a 1x1 sensor
        return EventStream(1, 1)
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        bad = next(i for i, row in enumerate(rows) if any(abs(v) >= 2**63 for v in row))
        raise ValueError(f"{path}: event {bad} has a value outside the 64-bit range") from None
    width = int(arr[:, 0].max()) + 1
    height = int(arr[:, 1].max()) + 1
    try:
        return make_stream(width, height, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

