"""Reading and validating NetFlow export rows (binetflow-style CSV).

Rows carry a timestamped 5-tuple-ish flow summary plus byte/packet totals
and a free-text label. Ports stay strings: captures contain hex ports and
empty fields, and nothing downstream needs them numeric except the
service lookup, which parses defensively.
"""

from __future__ import annotations

import csv
import enum
import heapq
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, ParseError

TIME_FORMAT = "%Y/%m/%d %H:%M:%S.%f"
_TIME_FORMAT_NO_FRAC = "%Y/%m/%d %H:%M:%S"

REQUIRED_COLUMNS = (
    "StartTime", "Dur", "Proto", "SrcAddr", "Sport", "Dir",
    "DstAddr", "Dport", "State", "TotPkts", "TotBytes", "SrcBytes", "Label",
)

# Written column order includes the ToS fields so emitted CSV matches the
# capture layout byte for byte; both are ignored on read.
CSV_FIELD_ORDER = (
    "StartTime", "Dur", "Proto", "SrcAddr", "Sport", "Dir", "DstAddr",
    "Dport", "State", "sTos", "dTos", "TotPkts", "TotBytes", "SrcBytes", "Label",
)


class GroundTruth(enum.Enum):
    BACKGROUND = "Background"
    NORMAL = "Normal"
    BOTNET = "Botnet"

    @classmethod
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
    num = port_number(dst_port)
    if num is None:
        return "other"
    return _SERVICE_TABLE.get((num, proto.lower()), "other")


@dataclass(frozen=True, slots=True)
class FlowRecord:
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


def parse_timestamp(text: str) -> float:
    try:
        dt = datetime.strptime(text, TIME_FORMAT)
    except ValueError:
        dt = datetime.strptime(text, _TIME_FORMAT_NO_FRAC)
    return dt.replace(tzinfo=timezone.utc).timestamp()


def format_timestamp(t: float) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime(TIME_FORMAT)


def parse_flow(row: dict[str, str], path: str = "", line_no: int = 0) -> FlowRecord:
    """Build a validated FlowRecord from one CSV row dict."""

    def bad(msg: str) -> ParseError:
        return ParseError(f"{path}:{line_no}: {msg}", path=path, line_no=line_no)

    try:
        start = parse_timestamp(row["StartTime"])
    except (ValueError, KeyError) as exc:
        raise bad(f"bad StartTime {row.get('StartTime')!r}") from exc
    try:
        duration = float(row["Dur"])
        tot_pkts = int(row["TotPkts"])
        tot_bytes = int(row["TotBytes"])
        src_bytes = int(row["SrcBytes"])
    except (ValueError, KeyError) as exc:
        raise bad("non-numeric Dur/TotPkts/TotBytes/SrcBytes") from exc

    if not math.isfinite(duration):
        raise bad(f"non-finite duration {duration}")
    if duration < 0:
        raise bad(f"negative duration {duration}")
    if tot_pkts < 0:
        raise bad(f"negative TotPkts {tot_pkts}")
    if not 0 <= src_bytes <= tot_bytes:
        raise bad(f"byte counts violate 0 <= SrcBytes <= TotBytes ({src_bytes}, {tot_bytes})")
    proto = row.get("Proto", "").strip().lower()
    if not row.get("SrcAddr") or not row.get("DstAddr"):
        raise bad("missing SrcAddr/DstAddr")

    dst_port = row.get("Dport", "").strip()
    return FlowRecord(
        start_time=start,
        duration=duration,
        proto=proto,
        src_addr=row["SrcAddr"].strip(),
        src_port=row.get("Sport", "").strip(),
        direction=row.get("Dir", "").strip(),
        dst_addr=row["DstAddr"].strip(),
        dst_port=dst_port,
        state=row.get("State", "").strip(),
        service=service_of(proto, dst_port),
        tot_pkts=tot_pkts,
        tot_bytes=tot_bytes,
        src_bytes=src_bytes,
        label_raw=row.get("Label", "").strip(),
    )


def flow_to_row(rec: FlowRecord) -> dict[str, str]:
    """Inverse of parse_flow: a row dict that parses back to an equal record."""
    return {
        "StartTime": format_timestamp(rec.start_time),
        "Dur": repr(rec.duration),
        "Proto": rec.proto,
        "SrcAddr": rec.src_addr,
        "Sport": rec.src_port,
        "Dir": rec.direction,
        "DstAddr": rec.dst_addr,
        "Dport": rec.dst_port,
        "State": rec.state,
        "sTos": "0",
        "dTos": "0",
        "TotPkts": str(rec.tot_pkts),
        "TotBytes": str(rec.tot_bytes),
        "SrcBytes": str(rec.src_bytes),
        "Label": rec.label_raw,
    }


def write_flows_csv(path: str | Path, records: Iterable[FlowRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_FIELD_ORDER))
        writer.writeheader()
        for rec in records:
            writer.writerow(flow_to_row(rec))


@dataclass
class FileStats:
    path: str
    rows: int = 0
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


def _check_header(fieldnames: Sequence[str] | None, path: str) -> None:
    missing = [c for c in REQUIRED_COLUMNS if not fieldnames or c not in fieldnames]
    if missing:
        raise DataError(f"{path}: missing required columns {missing}")


def iter_flows(path: str | Path, strict: bool = False,
               stats: IngestStats | None = None) -> Iterator[FlowRecord]:
    """Yield records in file order.

    Lenient mode (default) skips malformed rows and counts them; strict
    mode raises on the first bad row. Ordering is whatever the file has;
    use read_dataset for a time-sorted stream.
    """
    path = Path(path)
    fstats = FileStats(path=str(path))
    if stats is not None:
        stats.files.append(fstats)
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames, str(path))
        for line_no, row in enumerate(reader, start=2):
            fstats.rows += 1
            try:
                rec = parse_flow(row, path=str(path), line_no=line_no)
            except ParseError as exc:
                if strict:
                    raise
                fstats.errors += 1
                if not fstats.first_error:
                    fstats.first_error = str(exc)
                continue
            fstats.parsed += 1
            yield rec


def read_dataset(paths: Sequence[str | Path], strict: bool = False
                 ) -> tuple[Iterator[FlowRecord], IngestStats]:
    """Merge one or more capture files into a single time-ordered stream.

    Each file is loaded and stably sorted by start_time (captures are
    mostly, not strictly, chronological), then the sorted runs are
    heap-merged. Stats fill in as the iterator is consumed.
    """
    stats = IngestStats()

    def _sorted_run(p):
        records = list(iter_flows(p, strict=strict, stats=stats))
        records.sort(key=lambda r: r.start_time)
        return records

    def _merged():
        runs = [_sorted_run(p) for p in paths]
        yield from heapq.merge(*runs, key=lambda r: r.start_time)

    return _merged(), stats


def scan_time_bounds(path: str | Path) -> tuple[float, float]:
    """(min, max) StartTime over parseable rows, without building records."""
    lo, hi = float("inf"), float("-inf")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _check_header(reader.fieldnames, str(path))
        for row in reader:
            try:
                t = parse_timestamp(row["StartTime"])
            except (ValueError, KeyError):
                continue
            lo, hi = min(lo, t), max(hi, t)
    if lo > hi:
        raise DataError(f"{path}: no parseable timestamps")
    return lo, hi
