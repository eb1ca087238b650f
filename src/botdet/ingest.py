"""Reading and validating NetFlow export rows (binetflow-style CSV).

Rows carry a timestamped 5-tuple-ish flow summary plus byte/packet totals
and a free-text label. Ports stay strings: captures contain hex ports and
empty fields, and nothing downstream needs them numeric except the
service lookup, which parses defensively.

Two readers share one validation. ``iter_flows`` yields one FlowRecord per
row, for the stream and the scripts: its 13 parsed fields, from which the
label and the service derive. ``read_dataset`` reads a batch of
captures into a ``FlowTable``: each chunk of csv rows becomes columns of
numbers, interned text codes and, for the ports and the destination,
which a scan makes new in nearly every flow, numpy string arrays. The
chunk is then dropped, so memory grows by tens of bytes per flow, not by
a record's hundreds, and no Python object is kept per distinct port or
destination. A row that the column checks do not vouch for, a time in
another form or far from 1970 among them, is read by parse_flow itself,
so both readers give the same values and the same errors.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ParseError

TIME_FORMAT = "%Y/%m/%d %H:%M:%S.%f"
_TIME_FORMAT_NO_FRAC = "%Y/%m/%d %H:%M:%S"

# Capture columns in written order, which is the CTU-13 binetflow layout.
CSV_FIELD_ORDER = (
    "StartTime", "Dur", "Proto", "SrcAddr", "Sport", "Dir", "DstAddr",
    "Dport", "State", "sTos", "dTos", "TotPkts", "TotBytes", "SrcBytes", "Label",
)
# Read by header position; the ToS fields are written as "0" and ignored on read.
REQUIRED_COLUMNS = tuple(c for c in CSV_FIELD_ORDER if c not in ("sTos", "dTos"))


class GroundTruth(enum.Enum):
    BACKGROUND = "Background"
    NORMAL = "Normal"
    BOTNET = "Botnet"

    @classmethod
    @functools.lru_cache(maxsize=4096)
    def from_label(cls, label_raw: str) -> "GroundTruth":
        low = label_raw.lower()
        if "botnet" in low:
            return cls.BOTNET
        if "normal" in low:
            return cls.NORMAL
        return cls.BACKGROUND


# (port, proto) -> service bucket; anything else is "other".
_SERVICE_TABLE = {
    (53, "udp"): "dns",
    (53, "tcp"): "dns",
    (25, "tcp"): "smtp",
    (443, "tcp"): "ssl",
    (80, "tcp"): "http",
}


def port_number(port: str) -> int | None:
    """Best-effort numeric port; hex forms like 0x0035 occur in captures."""
    s = port.strip()
    if not s:
        return None
    try:
        return int(s, 16) if s.lower().startswith("0x") else int(s, 10)
    except ValueError:
        return None


def service_of(proto: str, dst_port: str) -> str:
    # Most ports are a few ASCII digits, which int() reads as port_number
    # would; every other form, a digit string too long for int() included,
    # goes through port_number.
    if dst_port.isascii() and dst_port.isdigit() and len(dst_port) <= 5:
        num = int(dst_port)
    else:
        num = port_number(dst_port)
    if num is None:
        return "other"
    return _SERVICE_TABLE.get((num, proto.lower()), "other")


class FlowRecord(NamedTuple):
    """One parsed capture row: a tuple, so building one is a single allocation.

    Its fields are the row's REQUIRED_COLUMNS values; ``label`` and
    ``service`` derive from them. It is immutable, hashes as its field
    tuple, and equals only another FlowRecord with equal fields, never a plain tuple.
    """

    start_time: float  # epoch seconds (capture timestamps read as UTC)
    duration: float
    proto: str
    src_addr: str
    src_port: str
    direction: str
    dst_addr: str
    dst_port: str
    state: str
    tot_pkts: int
    tot_bytes: int
    src_bytes: int
    label_raw: str

    @property
    def label(self) -> GroundTruth:
        return GroundTruth.from_label(self.label_raw)

    @property
    def service(self) -> str:
        return service_of(self.proto, self.dst_port)

    def __eq__(self, other: object) -> bool:
        return type(other) is FlowRecord and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


# The exact capture form YYYY/MM/DD HH:MM:SS[.ffffff], in ASCII digits only:
# strptime also reads other Unicode digits, which must take its path.
_CANONICAL_TIME = re.compile(
    r"[0-9]{4}/[0-9]{2}/[0-9]{2} ([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.([0-9]{6}))?")
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


@functools.lru_cache(maxsize=4096)
def _day_seconds(day: str) -> int:
    """Epoch seconds at 00:00 UTC of a canonical YYYY/MM/DD; ValueError if no such date."""
    return (date(int(day[:4]), int(day[5:7]), int(day[8:10])).toordinal()
            - _EPOCH_ORDINAL) * 86400


def _strptime_timestamp(text: str) -> float:
    try:
        dt = datetime.strptime(text, TIME_FORMAT)
    except ValueError:
        dt = datetime.strptime(text, _TIME_FORMAT_NO_FRAC)
    return dt.replace(tzinfo=timezone.utc).timestamp()


def parse_timestamp(text: str) -> float:
    """Epoch seconds of a capture timestamp read as UTC, as strptime reads it.

    The canonical form is computed directly: whole microseconds divided by
    10**6 once, in Python ints, which is what aware datetime.timestamp()
    does, so the bits are the same. Any other text (unpadded fields, 1-5
    fraction digits, runs of whitespace), an hour, minute or second out of
    range, or a date that does not exist goes through strptime, which also
    raises every ValueError.
    """
    m = _CANONICAL_TIME.fullmatch(text)
    if m is not None:
        hh, mm, ss, frac = m.groups()
        h, mi, s = int(hh), int(mm), int(ss)
        if h <= 23 and mi <= 59 and s <= 59:
            try:
                day = _day_seconds(text[:10])
            except ValueError:
                pass
            else:
                us = int(frac) if frac else 0
                return ((day + h * 3600 + mi * 60 + s) * 1_000_000 + us) / 1_000_000
    return _strptime_timestamp(text)


def format_timestamp(t: float) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime(TIME_FORMAT)


# Counts are refused above this, the int64 maximum, so a table column holds
# every count that a record does.
_COUNT_MAX = 2**63 - 1


def _row_error(path: str, line_no: int, msg: str) -> ParseError:
    return ParseError(f"{path}:{line_no}: {msg}", path, line_no)


def parse_flow(values: Sequence[str], path: str = "", line_no: int = 0) -> FlowRecord:
    """Build a validated FlowRecord from one row's values in REQUIRED_COLUMNS order."""
    (start_text, dur, proto, src_addr, src_port, direction, dst_addr, dst_port,
     state, pkts, nbytes, src_nbytes, label) = values
    try:
        start = parse_timestamp(start_text)
    except ValueError as exc:
        raise _row_error(path, line_no, f"bad StartTime {start_text!r}") from exc
    try:
        duration = float(dur)
        tot_pkts = int(pkts)
        tot_bytes = int(nbytes)
        src_bytes = int(src_nbytes)
    except ValueError as exc:
        raise _row_error(path, line_no, "non-numeric Dur/TotPkts/TotBytes/SrcBytes") from exc

    if not math.isfinite(duration):
        raise _row_error(path, line_no, f"non-finite duration {duration}")
    if duration < 0:
        raise _row_error(path, line_no, f"negative duration {duration}")
    if tot_pkts < 0:
        raise _row_error(path, line_no, f"negative TotPkts {tot_pkts}")
    if not 0 <= src_bytes <= tot_bytes:
        raise _row_error(path, line_no, "byte counts violate 0 <= SrcBytes <= TotBytes "
                         f"({src_bytes}, {tot_bytes})")
    if tot_pkts > _COUNT_MAX or tot_bytes > _COUNT_MAX:
        raise _row_error(path, line_no, "TotPkts or TotBytes above 2**63 - 1")
    proto = proto.strip().lower()
    src_addr, dst_addr = src_addr.strip(), dst_addr.strip()
    if not src_addr or not dst_addr:
        raise _row_error(path, line_no, "missing SrcAddr/DstAddr")
    return FlowRecord(start, duration, proto, src_addr, src_port.strip(),
                      direction.strip(), dst_addr, dst_port.strip(), state.strip(),
                      tot_pkts, tot_bytes, src_bytes, label.strip())


def flow_to_row(rec: FlowRecord) -> list[str]:
    """Inverse of parse_flow: the CSV_FIELD_ORDER values of a row that parses back to an equal record."""
    return [format_timestamp(rec.start_time), repr(rec.duration), rec.proto,
            rec.src_addr, rec.src_port, rec.direction, rec.dst_addr, rec.dst_port,
            rec.state, "0", "0", str(rec.tot_pkts), str(rec.tot_bytes),
            str(rec.src_bytes), rec.label_raw]


def write_flows_csv(path: str | Path, records: Iterable[FlowRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELD_ORDER)
        writer.writerows(map(flow_to_row, records))


@dataclass
class FileStats:
    path: str
    parsed: int = 0
    errors: int = 0
    first_error: str = ""


@dataclass
class IngestStats:
    files: list[FileStats] = field(default_factory=list)

    @property
    def parsed(self) -> int:
        return sum(f.parsed for f in self.files)

    @property
    def errors(self) -> int:
        return sum(f.errors for f in self.files)


@contextlib.contextmanager
def _capture(path: Path):
    """A capture's csv reader past its header, its REQUIRED_COLUMNS picker and header width."""
    try:
        fh = open(path, newline="", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise DataError(f"{path}:1: unreadable header ({exc})") from None
        columns = {c: i for i, c in enumerate(header)}
        missing = [c for c in REQUIRED_COLUMNS if c not in columns]
        if missing:
            raise DataError(f"{path}: missing required columns {missing}")
        yield reader, operator.itemgetter(*(columns[c] for c in REQUIRED_COLUMNS)), len(header)


def _is_utf8(text: str) -> bool:
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _parse_row(row: list[str], pick, width: int, path: str, line_no: int) -> FlowRecord:
    """parse_flow of a non-blank csv row, after the checks that the row is whole UTF-8 text.

    iter_flows makes the same checks inline: a call per row made its read
    ≈10% slower.
    """
    if len(row) < width:
        raise _row_error(path, line_no, f"row has {len(row)} fields, the header {width}")
    if not _is_utf8("".join(row)):
        raise _row_error(path, line_no, "not UTF-8 text")
    return parse_flow(pick(row), path, line_no)


def _bad_row(err: ParseError, strict: bool, fstats: FileStats) -> None:
    if strict:
        raise err
    fstats.errors += 1
    if not fstats.first_error:
        fstats.first_error = str(err)


def iter_flows(path: str | Path, strict: bool = False,
               stats: IngestStats | None = None) -> Iterator[FlowRecord]:
    """Yield records in file order.

    Captures are UTF-8 CSV with a header row; columns are found by header
    name (the last of a repeated name wins) and extra fields are ignored.
    Blank lines are skipped. A bad row is one that fails parse_flow, has
    fewer fields than the header, holds bytes that are not UTF-8, or trips
    the csv reader (an oversized field, say). Lenient mode (default) skips
    and counts bad rows; strict mode raises a ParseError naming the bad
    row's last physical line. Ordering is whatever the file has; use
    read_dataset for a time-sorted table.
    """
    path = Path(path)
    name = str(path)
    fstats = FileStats(path=name)
    if stats is not None:
        stats.files.append(fstats)
    with _capture(path) as (reader, pick, width):
        while True:
            try:
                row = next(reader, None)
                if row is None:
                    return
                if not row:
                    continue
                if len(row) < width:
                    raise _row_error(name, reader.line_num,
                                     f"row has {len(row)} fields, the header {width}")
                try:
                    "".join(row).encode()
                except UnicodeEncodeError:
                    raise _row_error(name, reader.line_num, "not UTF-8 text") from None
                rec = parse_flow(pick(row), name, reader.line_num)
            except csv.Error as exc:
                err = _row_error(name, reader.line_num, f"unreadable row ({exc})")
            except ParseError as exc:
                err = exc
            else:
                fstats.parsed += 1
                yield rec
                continue
            _bad_row(err, strict, fstats)


# ------------------------------------------------------------- flow table

# Rows per chunk that read_dataset turns into columns at once. Larger chunks
# spread numpy's per-call cost thinner, but a chunk's csv rows are garbage
# that stays resident around the text values kept from it: reading the
# chain's training capture (40k flows) peaked 1.2 MB higher at 1,024 rows
# than at 512, and 5 MB higher at 4,096.
_CHUNK_ROWS = 1024

# The table's column types: text fields hold int32 codes into their vocabularies.
_DTYPES = {**dict.fromkeys(FlowRecord._fields, np.int32), "start_time": np.float64,
           "duration": np.float64, "tot_pkts": np.int64, "tot_bytes": np.int64,
           "src_bytes": np.int64}
# Variable-width text: an element holds up to 15 bytes in place, and a longer
# value takes only its own length, so no value widens the others.
_TEXT = np.dtypes.StringDType()
# Text fields of few distinct values, with the function that turns a raw csv
# value into the record's value.
_INTERNED_FIELDS = {
    "proto": lambda s: s.strip().lower(), "src_addr": str.strip, "direction": str.strip,
    "state": str.strip, "label_raw": str.strip,
}
# Text fields that scans and spam fan-out make nearly one value per flow. A
# chunk keeps their str.strip values as string arrays, which the table codes
# once, so no Python object outlives a chunk for each distinct value.
_STRING_FIELDS = ("src_port", "dst_addr", "dst_port")
# Stands in for a short or non-UTF-8 row while a chunk's columns are built;
# such a row is always re-read by _parse_row, which refuses it.
_STAND_IN = ("1970/01/01 00:00:00", "0", "", "-", "", "", "-", "", "", "0", "0", "0", "")


class FlowTable:
    """Parsed flows as columns, stably sorted by start time: what read_dataset returns.

    ``columns`` holds one array per FlowRecord field: start_time and
    duration float64, the three counts int64, and each text field int32
    codes into ``vocab[field]``, a string array of that field's distinct
    values. src_port, dst_addr and dst_port list theirs in sorted order;
    the other text fields in the order first read. No column holds the
    service: aggregation derives it per (proto, dst_port) pair. Iteration gives
    FlowRecords equal to those that parse_flow gives for the same rows, in
    the order a stable sort of them by start time gives, so a caller may
    treat the table as that list; only iteration turns the vocabularies
    into Python strings.
    """

    __slots__ = ("columns", "vocab")

    def __init__(self, columns: dict[str, np.ndarray], vocab: dict[str, np.ndarray]):
        self.columns = columns
        self.vocab = vocab

    def __len__(self) -> int:
        return len(self.columns["start_time"])

    def __iter__(self) -> Iterator[FlowRecord]:
        values = [self.columns[f].tolist() if f not in self.vocab
                  else map(self.vocab[f].tolist().__getitem__, self.columns[f].tolist())
                  for f in FlowRecord._fields]
        return map(FlowRecord._make, zip(*values))


class _Interner:
    """Codes for a text field's values, in the order first seen.

    ``index`` maps every raw value read, and every value, to its value's
    code. That is sound because each field's canon is idempotent: a value
    is its own canon.
    """

    __slots__ = ("canon", "index", "words")

    def __init__(self, canon=None):
        self.canon = canon
        self.index: dict[str, int] = {}
        self.words: list[str] = []

    def code(self, word: str) -> int:
        c = self.index.get(word)
        if c is None:
            c = self.index[word] = len(self.words)
            self.words.append(word)
        return c

    def encode(self, raw: Sequence[str]) -> np.ndarray:
        """The codes of the values of these raw csv texts; canon runs once per new raw text."""
        index = self.index
        for r in dict.fromkeys(raw):
            if r not in index:
                index[r] = self.code(self.canon(r))
        return np.fromiter(map(index.__getitem__, raw), np.int32, len(raw))


# Byte offsets of the digits and separators of YYYY/MM/DD HH:MM:SS[.ffffff].
_TIME_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25])
_TIME_SEPARATORS = {4: "/", 7: "/", 10: " ", 13: ":", 16: ":", 19: "."}
_EXACT_MICROSECONDS = 2**53  # a float64 holds every integer up to here


def _field_value(d: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return d[:, lo:hi] @ 10 ** np.arange(hi - lo - 1, -1, -1)


def _canonical_times(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """parse_timestamp of each text in the canonical capture form, and which texts those are.

    The same arithmetic as parse_timestamp's canonical branch, on arrays:
    one _day_seconds lookup per distinct date, and the division of whole
    microseconds by 10**6 in float64, which gives its bits where they fit
    the mantissa. Every other text, a time before July 1684 or after June
    2255 among them, is left unread (False) for parse_timestamp itself.
    """
    n = len(texts)
    times, ok = np.zeros(n), np.zeros(n, dtype=bool)
    lengths = np.fromiter(map(len, texts), np.int64, n)
    for width in (26, 19):
        at = np.flatnonzero(lengths == width)
        if not at.size:
            continue
        group = texts if at.size == n else [texts[i] for i in at]
        raw = np.frombuffer("".join(group).encode("ascii", "replace"),
                            np.uint8).reshape(-1, width)
        d = raw.astype(np.int64) - ord("0")
        digits = d[:, _TIME_DIGITS[_TIME_DIGITS < width]]
        good = ((digits >= 0) & (digits <= 9)).all(axis=1)
        for pos, sep in _TIME_SEPARATORS.items():
            if pos < width:
                good &= raw[:, pos] == ord(sep)
        h, mi, s = (_field_value(d, lo, lo + 2) for lo in (11, 14, 17))
        good &= (h <= 23) & (mi <= 59) & (s <= 59)
        day_key = _field_value(d, 0, 4) * 10_000 + _field_value(d, 5, 7) * 100 + _field_value(d, 8, 10)
        days, which = np.unique(np.where(good, day_key, 0), return_inverse=True)
        day_s = np.zeros(len(days), dtype=np.int64)
        for k, key in enumerate(days.tolist()):
            try:
                day_s[k] = _day_seconds(f"{key // 10_000:04d}/{key // 100 % 100:02d}/{key % 100:02d}")
            except ValueError:
                good &= days[which] != key
        us = (((day_s[which] + h * 3600 + mi * 60 + s) * 1_000_000)
              + (_field_value(d, 20, 26) if width == 26 else 0))
        good &= np.abs(us) <= _EXACT_MICROSECONDS
        times[at], ok[at] = us / 1_000_000, good
    return times, ok


def _numbers(texts: Sequence[str], kind, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``kind(t)`` of each text as ``dtype``, and which texts gave a value that fits it."""
    n = len(texts)
    try:
        return np.fromiter(map(kind, texts), dtype, n), np.ones(n, dtype=bool)
    except (ValueError, OverflowError):
        pass
    values, ok = np.zeros(n, dtype=dtype), np.zeros(n, dtype=bool)
    for i, t in enumerate(texts):
        try:
            values[i] = kind(t)
        except (ValueError, OverflowError):
            continue
        ok[i] = True
    return values, ok


class _TableBuilder:
    """Columns of the rows read so far, one chunk at a time.

    The interned fields hold codes as they are read; the string fields hold
    their values until table() codes them.
    """

    def __init__(self):
        self.text = {f: _Interner(canon) for f, canon in _INTERNED_FIELDS.items()}
        self.parts = {f: [np.zeros(0, _TEXT if f in _STRING_FIELDS else dtype)]
                      for f, dtype in _DTYPES.items()}
        self.nul = False  # numpy's StringDType compares two strings only up to a NUL

    def add_chunk(self, rows: list[list[str]], lines: list[int], pick, width: int,
                  name: str, strict: bool, fstats: FileStats) -> None:
        """Validate and store non-blank rows, counting or raising each bad one in row order.

        Each column is read with the builtins parse_flow uses. A row that
        any column cannot vouch for goes through _parse_row itself, so a
        bad row's message and a good row's values are parse_flow's.
        """
        n = len(rows)
        whole = np.fromiter(map(len, rows), np.int64, n) >= width
        text = "".join(itertools.chain.from_iterable(rows))
        self.nul |= "\x00" in text
        if not (text.isascii() or _is_utf8(text)):
            whole &= [_is_utf8("".join(r)) for r in rows]
        del text
        values = (map(pick, rows) if whole.all()
                  else [pick(r) if ok else _STAND_IN for r, ok in zip(rows, whole)])
        cols = dict(zip(FlowRecord._fields, zip(*values)))
        out = {}
        out["start_time"], good = _canonical_times(cols["start_time"])
        good &= whole
        for f, kind in (("duration", float), ("tot_pkts", int), ("tot_bytes", int),
                        ("src_bytes", int)):
            out[f], ok = _numbers(cols[f], kind, _DTYPES[f])
            good &= ok
        dur, src = out["duration"], out["src_bytes"]
        good &= (np.isfinite(dur) & (dur >= 0) & (out["tot_pkts"] >= 0) & (src >= 0)
                 & (src <= out["tot_bytes"]))
        for f in _INTERNED_FIELDS:
            out[f] = self.text[f].encode(cols[f])
        for f in _STRING_FIELDS:
            out[f] = np.array(list(map(str.strip, cols[f])), dtype=_TEXT)
        empty = self.text["src_addr"].index.get("")
        if empty is not None:
            good &= out["src_addr"] != empty
        good &= out["dst_addr"] != ""
        del cols

        keep = np.ones(n, dtype=bool)
        for i in np.flatnonzero(~good).tolist():
            try:
                rec = _parse_row(rows[i], pick, width, name, lines[i])
            except ParseError as err:
                _bad_row(err, strict, fstats)
                keep[i] = False
                continue
            for f, value in zip(FlowRecord._fields, rec):
                out[f][i] = self.text[f].code(value) if f in self.text else value
        fstats.parsed += int(keep.sum())
        for f, col in out.items():
            self.parts[f].append(col if keep.all() else col[keep])

    def table(self) -> FlowTable:
        """The stored rows, stably sorted by start time, each string field coded by one sort."""
        order = np.argsort(np.concatenate(self.parts["start_time"]), kind="stable")
        vocab = {f: np.array(t.words, dtype=_TEXT) for f, t in self.text.items()}
        columns = {}
        for f in FlowRecord._fields:
            col = np.concatenate(self.parts.pop(f))
            if f in _STRING_FIELDS:
                words, col = np.unique(col.astype(object) if self.nul else col,
                                       return_inverse=True)
                vocab[f] = words.astype(_TEXT, copy=False)
            columns[f] = col[order].astype(_DTYPES[f], copy=False)
        return FlowTable(columns, vocab)


def _row_chunks(reader, name: str) -> Iterator[tuple[list, list, ParseError | None]]:
    """(non-blank rows, their last line numbers, a csv error that ends the chunk or None).

    Chunks hold at most _CHUNK_ROWS rows; the last may be empty.
    """
    rows, lines = [], []
    while True:
        try:
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
                    if len(rows) == _CHUNK_ROWS:
                        yield rows, lines, None
                        rows, lines = [], []
        except csv.Error as exc:
            yield rows, lines, _row_error(name, reader.line_num, f"unreadable row ({exc})")
            rows, lines = [], []
            continue
        yield rows, lines, None
        return


def read_dataset(paths: Sequence[str | Path], strict: bool = False
                 ) -> tuple[FlowTable, IngestStats]:
    """Load one or more capture files as a single time-ordered FlowTable.

    Each file is read as iter_flows reads it, with the same bad rows,
    messages and per-file stats, but in chunks of rows that become columns
    at once. Captures are mostly, not strictly, chronological, so the
    files' rows are concatenated in the given order and stably sorted by
    start_time: flows with equal times keep their file order, then their
    row order. Everything is read before this returns, so a missing file
    or, in strict mode, a bad row raises here, and the stats are complete.
    """
    stats = IngestStats()
    builder = _TableBuilder()
    for path in map(Path, paths):
        fstats = FileStats(path=str(path))
        stats.files.append(fstats)
        with _capture(path) as (reader, pick, width):
            for rows, lines, err in _row_chunks(reader, fstats.path):
                if rows:
                    builder.add_chunk(rows, lines, pick, width, fstats.path, strict, fstats)
                if err is not None:
                    _bad_row(err, strict, fstats)
    return builder.table(), stats
