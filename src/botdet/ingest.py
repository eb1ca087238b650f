"""Reading and validating NetFlow export rows (binetflow-style CSV).

Rows carry a timestamped 5-tuple-ish flow summary plus byte/packet totals
and a free-text label. Ports stay strings: captures contain hex ports and
empty fields, and nothing downstream needs them numeric except the
service lookup, which parses defensively.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    It is immutable, hashes as its field tuple, and equals only another
    FlowRecord with equal fields, never a plain tuple.
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
    service: str
    tot_pkts: int
    tot_bytes: int
    src_bytes: int
    label_raw: str

    @property
    def label(self) -> GroundTruth:
        return GroundTruth.from_label(self.label_raw)

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
    proto = proto.strip().lower()
    src_addr, dst_addr = src_addr.strip(), dst_addr.strip()
    if not src_addr or not dst_addr:
        raise _row_error(path, line_no, "missing SrcAddr/DstAddr")
    dst_port = dst_port.strip()
    return FlowRecord(start, duration, proto, src_addr, src_port.strip(),
                      direction.strip(), dst_addr, dst_port, state.strip(),
                      service_of(proto, dst_port), tot_pkts, tot_bytes, src_bytes,
                      label.strip())


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
    read_dataset for a time-sorted list.
    """
    path = Path(path)
    name = str(path)
    fstats = FileStats(path=name)
    if stats is not None:
        stats.files.append(fstats)
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
        pick = operator.itemgetter(*(columns[c] for c in REQUIRED_COLUMNS))

        while True:
            try:
                row = next(reader, None)
                if row is None:
                    return
                if not row:
                    continue
                if len(row) < len(header):
                    raise _row_error(name, reader.line_num,
                                     f"row has {len(row)} fields, the header {len(header)}")
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
            if strict:
                raise err
            fstats.errors += 1
            if not fstats.first_error:
                fstats.first_error = str(err)


def read_dataset(paths: Sequence[str | Path], strict: bool = False
                 ) -> tuple[list[FlowRecord], IngestStats]:
    """Load one or more capture files as a single time-ordered list.

    Captures are mostly, not strictly, chronological, so the files'
    records are concatenated in the given order and stably sorted by
    start_time: flows with equal times keep their file order, then their
    row order. Everything is read before this returns, so a missing file
    or, in strict mode, a bad row raises here, and the stats are complete.
    """
    stats = IngestStats()
    flows = [f for p in paths for f in iter_flows(p, strict=strict, stats=stats)]
    flows.sort(key=operator.itemgetter(0))  # start_time
    return flows, stats
