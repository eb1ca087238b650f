"""Flow CSV parsing: field handling, labels, lenient/strict modes, merge order, timestamps."""

import csv
import math
import pickle
import string
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from botdet import ingest
from botdet.errors import DataError, ParseError
from botdet.ingest import FlowRecord, GroundTruth
from botdet.synth import make_fixture

HEADER = "StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,sTos,dTos,TotPkts,TotBytes,SrcBytes,Label"

ROW_UDP = ("2011/08/10 09:46:53.047277,3550.18,udp,147.32.84.229,13363,<->,"
           "147.32.80.9,53,CON,0,0,12,875,413,flow=Background-UDP-DNS")
ROW_TCP = ("2011/08/10 09:47:10.000123,1.5,tcp,147.32.84.165,1025,->,"
           "77.75.73.9,80,FSPA_FSPA,0,0,10,2000,900,flow=From-Botnet-V42-TCP")
ROW_NORMAL = ("2011/08/10 09:47:30.250000,0.2,tcp,147.32.84.170,2222,->,"
              "10.0.0.7,443,FSPA_FSPA,0,0,4,600,300,flow=To-Normal-V42-SSL")


def write_csv(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return path


class TestParseFlow:
    def test_known_row(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", [ROW_UDP])
        recs = list(ingest.iter_flows(f))
        assert len(recs) == 1
        r = recs[0]
        assert r.proto == "udp"
        assert r.src_addr == "147.32.84.229"
        assert r.dst_port == "53"
        assert r.service == "dns"
        assert r.state == "CON"
        assert (r.tot_pkts, r.tot_bytes, r.src_bytes) == (12, 875, 413)
        assert r.duration == pytest.approx(3550.18)
        assert r.label is GroundTruth.BACKGROUND
        # fractional seconds survive
        assert ingest.format_timestamp(r.start_time).endswith("09:46:53.047277")

    def test_label_rules(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", [ROW_UDP, ROW_TCP, ROW_NORMAL])
        labels = [r.label for r in ingest.iter_flows(f)]
        assert labels == [GroundTruth.BACKGROUND, GroundTruth.BOTNET, GroundTruth.NORMAL]

    def test_label_case_insensitive(self):
        assert GroundTruth.from_label("FLOW=FROM-BOTNET") is GroundTruth.BOTNET
        assert GroundTruth.from_label("something normal here") is GroundTruth.NORMAL
        assert GroundTruth.from_label("") is GroundTruth.BACKGROUND

    @pytest.mark.parametrize("proto,port,service", [
        ("udp", "53", "dns"), ("tcp", "53", "dns"), ("tcp", "25", "smtp"),
        ("tcp", "443", "ssl"), ("tcp", "80", "http"), ("udp", "80", "other"),
        ("tcp", "0x0050", "http"),  # hex ports resolve
        ("tcp", "", "other"), ("icmp", "0x0303", "other"),
    ])
    def test_service_mapping(self, proto, port, service):
        assert ingest.service_of(proto, port) == service

    def test_negative_duration_rejected(self, tmp_path):
        bad = ROW_UDP.replace(",3550.18,", ",-1,")
        f = write_csv(tmp_path / "a.csv", [bad])
        with pytest.raises(ParseError, match="negative duration"):
            list(ingest.iter_flows(f, strict=True))

    @pytest.mark.parametrize("dur", ["nan", "inf"])
    def test_non_finite_duration_rejected(self, tmp_path, dur):
        bad = ROW_UDP.replace(",3550.18,", f",{dur},")
        f = write_csv(tmp_path / "a.csv", [bad, ROW_UDP])
        with pytest.raises(ParseError, match="non-finite duration"):
            list(ingest.iter_flows(f, strict=True))
        stats = ingest.IngestStats()
        assert len(list(ingest.iter_flows(f, stats=stats))) == 1
        assert stats.errors == 1

    def test_src_bytes_above_total_rejected(self, tmp_path):
        bad = ROW_UDP.replace(",875,413,", ",875,999,")
        f = write_csv(tmp_path / "a.csv", [bad])
        with pytest.raises(ParseError, match="SrcBytes"):
            list(ingest.iter_flows(f, strict=True))

    def test_lenient_skips_and_counts(self, tmp_path):
        bad = ROW_UDP.replace("3550.18", "not-a-number")
        f = write_csv(tmp_path / "a.csv", [ROW_UDP, bad, ROW_TCP])
        stats = ingest.IngestStats()
        recs = list(ingest.iter_flows(f, stats=stats))
        assert len(recs) == 2
        assert stats.files[0].errors == 1
        assert stats.files[0].parsed == 2
        assert "not-a-number" in stats.files[0].first_error or "Dur" in stats.files[0].first_error

    def test_strict_raises_with_line_number(self, tmp_path):
        bad = ROW_UDP.replace("3550.18", "x")
        f = write_csv(tmp_path / "a.csv", [ROW_UDP, bad])
        with pytest.raises(ParseError) as exc:
            list(ingest.iter_flows(f, strict=True))
        assert exc.value.line_no == 3

    def test_missing_column_fatal(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("StartTime,Dur,Proto\n2011/08/10 09:46:53.047277,1,udp\n")
        with pytest.raises(DataError, match="missing required columns"):
            list(ingest.iter_flows(f))

    def test_missing_optional_fields_kept_empty(self, tmp_path):
        row = ("2011/08/10 09:46:53.000000,1.0,udp,1.2.3.4,,<->,5.6.7.8,,,0,0,1,10,5,")
        f = write_csv(tmp_path / "a.csv", [row])
        r = list(ingest.iter_flows(f))[0]
        assert r.src_port == "" and r.dst_port == "" and r.state == ""
        assert r.service == "other"


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", [ROW_UDP, ROW_TCP, ROW_NORMAL])
        first = list(ingest.iter_flows(f))
        out = tmp_path / "b.csv"
        ingest.write_flows_csv(out, first)
        second = list(ingest.iter_flows(out))
        assert first == second


class TestFlowRecordContract:
    """A record is immutable, hashes as its field tuple and equals only a FlowRecord."""

    def record(self, tmp_path):
        (rec,) = ingest.iter_flows(write_csv(tmp_path / "a.csv", [ROW_TCP]))
        return rec

    def test_fields_cannot_be_assigned(self, tmp_path):
        rec = self.record(tmp_path)
        for name in FlowRecord._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_hash_is_the_hash_of_the_field_tuple(self, tmp_path):
        rec = self.record(tmp_path)
        fields = tuple(getattr(rec, name) for name in FlowRecord._fields)
        assert len(fields) == 13 and hash(rec) == hash(fields)
        assert len({rec, rec._replace()}) == 1

    def test_fields_are_the_required_columns_in_order(self):
        field_of = {"StartTime": "start_time", "Dur": "duration", "Proto": "proto",
                    "SrcAddr": "src_addr", "Sport": "src_port", "Dir": "direction",
                    "DstAddr": "dst_addr", "Dport": "dst_port", "State": "state",
                    "TotPkts": "tot_pkts", "TotBytes": "tot_bytes", "SrcBytes": "src_bytes",
                    "Label": "label_raw"}
        assert FlowRecord._fields == tuple(field_of[c] for c in ingest.REQUIRED_COLUMNS)

    def test_equals_only_a_flow_record_with_equal_fields(self, tmp_path):
        rec = self.record(tmp_path)
        assert rec == rec._replace() and not rec != rec._replace()
        assert rec != rec._replace(src_bytes=rec.src_bytes + 1)
        plain = tuple(rec)
        assert rec != plain and plain != rec
        assert not rec == plain and not plain == rec
        assert rec not in [plain] and plain not in [rec]

    def test_pickle_round_trip_and_replace_keep_the_type(self, tmp_path):
        rec = self.record(tmp_path)
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is FlowRecord and back == rec
        moved = rec._replace(start_time=0.0)
        assert type(moved) is FlowRecord and moved.start_time == 0.0
        assert moved.label is rec.label is GroundTruth.BOTNET


class TestReadDataset:
    def test_merge_two_files_time_ordered(self, tmp_path):
        f1 = write_csv(tmp_path / "a.csv", [ROW_TCP])   # 09:47:10
        f2 = write_csv(tmp_path / "b.csv", [ROW_UDP, ROW_NORMAL])  # 09:46:53, 09:47:30
        stream, stats = ingest.read_dataset([f1, f2])
        times = [r.start_time for r in stream]
        assert times == sorted(times)
        assert stats.parsed == 3

    def test_out_of_order_within_file_sorted(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", [ROW_NORMAL, ROW_UDP, ROW_TCP])
        stream, _ = ingest.read_dataset([f])
        times = [r.start_time for r in stream]
        assert times == sorted(times)

    def test_single_record(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", [ROW_UDP])
        stream, stats = ingest.read_dataset([f])
        assert len(list(stream)) == 1
        assert stats.errors == 0

    def test_per_file_error_counts(self, tmp_path):
        bad = ROW_UDP.replace("3550.18", "zzz")
        f1 = write_csv(tmp_path / "a.csv", [ROW_UDP, bad])
        f2 = write_csv(tmp_path / "b.csv", [bad, bad, ROW_TCP])
        stream, stats = ingest.read_dataset([f1, f2])
        list(stream)
        by_path = {fs.path: fs.errors for fs in stats.files}
        assert by_path[str(f1)] == 1 and by_path[str(f2)] == 2

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            ingest.read_dataset([tmp_path / "nope.csv"])


def test_port_number_forms():
    assert ingest.port_number("53") == 53
    assert ingest.port_number("0x0035") == 53
    assert ingest.port_number("") is None
    assert ingest.port_number("junk") is None


def _service_by_port_number(proto: str, dst_port: str) -> str:
    """``service_of`` as it was before its digit fast path: every port through port_number."""
    num = ingest.port_number(dst_port)
    return "other" if num is None else ingest._SERVICE_TABLE.get((num, proto.lower()), "other")


_PORT_CHARS = st.sampled_from("0123456789abcdefxX+-_ \t\u0663\uff15\u00b2")
_PORTS = st.one_of(
    st.sampled_from(["25", "53", "80", "443", "0053", "00080", "000443", "0x0035", "0X50",
                     "+53", "-53", "5_3", " 53", "53\t", "\u0665\u0663", "\uff15\uff13", "",
                     "0", "65535", "99999999999999999999", "9" * 5000]),
    st.integers(0, 10**6).map(str), st.integers(0, 0xFFFF).map(hex),
    st.text(_PORT_CHARS, max_size=8), st.text(max_size=6))


@settings(max_examples=400, deadline=None)
@given(proto=st.sampled_from(["tcp", "udp", "TCP", "Udp", "icmp", ""]), port=_PORTS)
def test_service_of_equals_the_port_number_lookup(proto, port):
    assert ingest.service_of(proto, port) == _service_by_port_number(proto, port)


class TestRowLayout:
    def test_blank_lines_skipped_and_counted_nowhere(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text(HEADER + "\n\n" + ROW_UDP + "\n\n\n" + ROW_TCP + "\n")
        stats = ingest.IngestStats()
        assert len(list(ingest.iter_flows(f, stats=stats))) == 2
        fs = stats.files[0]
        assert (fs.parsed + fs.errors, stats.errors) == (2, 0)

    def test_columns_found_by_header_position(self, tmp_path):
        # Reordered columns, an extra trailing field, and a repeated name whose
        # last column wins.
        cols = HEADER.split(",")
        values = dict(zip(cols, ROW_UDP.split(",")))
        order = list(reversed(cols)) + ["Proto"]
        f = tmp_path / "a.csv"
        f.write_text(",".join(order) + "\n"
                     + ",".join([values[c] for c in order[:-1]] + ["TCP", "extra"]) + "\n")
        (rec,) = ingest.iter_flows(f)
        (want,) = ingest.iter_flows(write_csv(tmp_path / "b.csv", [ROW_UDP]))
        assert rec.proto == "tcp"
        assert rec.service == "dns"
        assert rec == want._replace(proto="tcp")

    def test_written_capture_is_utf8_with_crlf_rows(self, tmp_path):
        (rec,) = ingest.iter_flows(write_csv(tmp_path / "a.csv", [ROW_NORMAL]))
        out = tmp_path / "b.csv"
        ingest.write_flows_csv(out, [rec._replace(label_raw="flow=Normal-café")])
        assert out.read_bytes() == (HEADER + "\r\n" + ROW_NORMAL.replace(
            "To-Normal-V42-SSL", "Normal-café") + "\r\n").encode("utf-8")


GOOD = [ROW_UDP, ROW_TCP, ROW_NORMAL]
BAD_ROWS = {
    "short": ROW_TCP.encode()[:60],
    "not UTF-8": ROW_TCP.encode().replace(b"Botnet", b"Botn\xe9t"),
    "oversized field": ROW_TCP.encode().replace(b"flow=", b"x" * 200_000),
    "blank SrcAddr": ROW_TCP.encode().replace(b"147.32.84.165", b"   "),
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_bad_row_between_good_rows(tmp_path, kind):
    f = tmp_path / "a.csv"
    f.write_bytes(b"\n".join([HEADER.encode(), GOOD[0].encode(), BAD_ROWS[kind],
                              GOOD[1].encode(), GOOD[2].encode()]) + b"\n")
    want = list(ingest.iter_flows(write_csv(tmp_path / "good.csv", GOOD)))
    stats = ingest.IngestStats()
    assert list(ingest.iter_flows(f, stats=stats)) == want
    (fs,) = stats.files
    assert (fs.parsed + fs.errors, fs.parsed, fs.errors) == (4, 3, 1)
    assert fs.first_error.startswith(f"{f}:3: ")
    with pytest.raises(ParseError) as exc:
        list(ingest.iter_flows(f, strict=True))
    assert (exc.value.path, exc.value.line_no) == (str(f), 3)


def test_partial_last_line_is_a_bad_row(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text(HEADER + "\n" + ROW_UDP + "\n" + ROW_TCP[:60])
    stats = ingest.IngestStats()
    assert len(list(ingest.iter_flows(f, stats=stats))) == 1
    assert stats.errors == 1
    with pytest.raises(ParseError, match=r"a\.csv:3: row has 7 fields, the header 15"):
        list(ingest.iter_flows(f, strict=True))


# ------------------------------------------------- reference: the DictReader path

def _reference_parse_flow(row, path="", line_no=0):
    """The row-dict parser that iter_flows replaced, kept as the oracle."""

    def bad(msg):
        return ParseError(f"{path}:{line_no}: {msg}", path=path, line_no=line_no)

    try:
        start = ingest.parse_timestamp(row["StartTime"])
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

    return FlowRecord(
        start_time=start, duration=duration, proto=proto,
        src_addr=row["SrcAddr"].strip(), src_port=row.get("Sport", "").strip(),
        direction=row.get("Dir", "").strip(), dst_addr=row["DstAddr"].strip(),
        dst_port=row.get("Dport", "").strip(), state=row.get("State", "").strip(),
        tot_pkts=tot_pkts, tot_bytes=tot_bytes, src_bytes=src_bytes,
        label_raw=row.get("Label", "").strip(),
    )


def _reference_read(path):
    """(records, bad-row count) as csv.DictReader plus the row-dict parser gave them."""
    records, errors = [], 0
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.DictReader(fh), start=2):
            try:
                records.append(_reference_parse_flow(row, str(path), line_no))
            except ParseError:
                errors += 1
    return records, errors


_TEXT = st.text(string.ascii_letters + string.digits + " .,:-_=\"é/<>?", max_size=12)
_WHEN = st.datetimes(datetime(1971, 1, 1), datetime(2099, 12, 31))
_PORT = st.one_of(st.integers(0, 65535).map(str),
                  st.integers(0, 65535).map(lambda n: f"0x{n:04x}"),
                  st.sampled_from(["", "http", " 53 "]))
_LABEL = st.tuples(st.sampled_from(["flow=From-Botnet-V42", " flow=To-Normal-V44 ",
                                    "flow=Background-UDP\t", "", "normal botnet"]),
                   st.lists(st.booleans(), min_size=20, max_size=20)).map(
    lambda lu: "".join(c.upper() if up else c for c, up in zip(*lu)))
# Values that make a row bad; whitespace-only addresses are left out, since the
# DictReader path accepted them.
_BAD = {
    "StartTime": st.one_of(_TEXT, st.just("2011/13/01 00:00:00")),
    "Dur": st.sampled_from(["nan", "-inf", "inf", "-0.5", "", "1,5", "x"]),
    "SrcAddr": st.just(""), "DstAddr": st.just(""),
    "TotPkts": st.sampled_from(["-1", "", "1.5", "x"]),
    "TotBytes": st.sampled_from(["-1", "", "2e3"]),
    "SrcBytes": st.sampled_from(["-1", "99999999", "x"]),
}


@st.composite
def capture_values(draw):
    """One capture row's values by column name: valid, or with some fields made bad."""
    when = draw(_WHEN)
    tot_bytes = draw(st.integers(0, 10**7))
    values = {
        "StartTime": when.strftime(draw(st.sampled_from(
            [ingest.TIME_FORMAT, "%Y/%m/%d %H:%M:%S"]))),
        "Dur": draw(st.one_of(st.floats(0.0, 1e5).map(repr), st.sampled_from(["0", " 3.5 "]))),
        "Proto": draw(st.sampled_from(["tcp", "UDP", " icmp ", ""])),
        "SrcAddr": draw(st.sampled_from(["147.32.84.165", " 10.0.0.1 ", "fe80::1", "é"])),
        "Sport": draw(_PORT), "Dir": draw(st.sampled_from(["->", "<->", ""])),
        "DstAddr": draw(st.sampled_from(["147.32.80.9", "1.2.3.4 ", "a,b"])),
        "Dport": draw(_PORT), "State": draw(_TEXT), "sTos": "0", "dTos": draw(_TEXT),
        "TotPkts": str(draw(st.integers(0, 10**5))), "TotBytes": str(tot_bytes),
        "SrcBytes": str(draw(st.integers(0, tot_bytes))), "Label": draw(_LABEL),
    }
    for column in draw(st.lists(st.sampled_from(sorted(_BAD)), max_size=2)):
        values[column] = draw(_BAD[column])
    return values


@st.composite
def captures(draw):
    """A header (the layout permuted, maybe with extra or repeated names) and rows at least as wide."""
    header = draw(st.permutations(ingest.CSV_FIELD_ORDER))
    header += draw(st.lists(st.sampled_from(["Extra", "Label", "Dur", "SrcAddr"]), max_size=2))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        values = draw(capture_values())
        # A repeated name reads its last column, so earlier copies may hold anything.
        last = {c: i for i, c in enumerate(header)}
        rows.append([values.get(c, "") if last[c] == i else draw(_TEXT)
                     for i, c in enumerate(header)] + draw(st.lists(_TEXT, max_size=2)))
    return header, rows


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(captures())
def test_iter_flows_matches_the_dictreader_path(tmp_path, capture):
    header, rows = capture
    path = tmp_path / "cap.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    want, want_errors = _reference_read(path)
    stats = ingest.IngestStats()
    got = list(ingest.iter_flows(path, stats=stats))
    assert got == want
    fs = stats.files[0]
    assert (stats.errors, fs.parsed + fs.errors) == (want_errors, len(rows))

    out = tmp_path / "back.csv"
    ingest.write_flows_csv(out, got)
    assert list(ingest.iter_flows(out)) == got


# ------------------------------------------------------ timestamps: strptime oracle

def _strptime_reference(text):
    """Epoch seconds as strptime reads a capture timestamp, with or without a fraction."""
    try:
        dt = datetime.strptime(text, "%Y/%m/%d %H:%M:%S.%f")
    except ValueError:
        dt = datetime.strptime(text, "%Y/%m/%d %H:%M:%S")
    return dt.replace(tzinfo=timezone.utc).timestamp()


def _outcome(parse, text):
    try:
        return parse(text).hex()
    except ValueError:
        return ValueError


_ANY_WHEN = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999))
_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _canonical(when, frac=True):
    text = (f"{when.year:04d}/{when.month:02d}/{when.day:02d} "
            f"{when.hour:02d}:{when.minute:02d}:{when.second:02d}")
    return text + f".{when.microsecond:06d}" if frac else text


@st.composite
def canonical_timestamps(draw):
    return _canonical(draw(_ANY_WHEN), draw(st.booleans()))


@st.composite
def odd_timestamps(draw):
    """Forms strptime reads that the capture writer never emits, one or more per text."""
    when = draw(_ANY_WHEN)
    odd = draw(st.sets(st.sampled_from(["unpadded", "short fraction", "whitespace",
                                        "trailing", "full width"]), min_size=1))
    if "unpadded" in odd:
        when = when.replace(hour=when.hour % 10)
        pads = [draw(st.booleans()) for _ in range(6)]
        pads[3] = False
    else:
        pads = [True] * 6
    fields = [when.year, when.month, when.day, when.hour, when.minute, when.second]
    y, mo, d, h, mi, s = (f"{v:0{width}d}" if pad else str(v)
                          for v, width, pad in zip(fields, [4, 2, 2, 2, 2, 2], pads))
    sep = draw(st.sampled_from(["  ", "\t", " \t"])) if "whitespace" in odd else " "
    text = f"{y}/{mo}/{d}{sep}{h}:{mi}:{s}"
    digits = draw(st.integers(1, 5)) if "short fraction" in odd else draw(st.sampled_from([0, 6]))
    if digits:
        text += "." + f"{when.microsecond:06d}"[:digits]
    if "full width" in odd:
        at = draw(st.sets(st.sampled_from([i for i, c in enumerate(text) if c.isdigit()]),
                          min_size=1))
        text = "".join(c.translate(_FULL_WIDTH) if i in at else c for i, c in enumerate(text))
    if "trailing" in odd:
        text += draw(st.sampled_from([" ", "\t", "\n"]))
    return text


@st.composite
def impossible_timestamps(draw):
    when = draw(_ANY_WHEN)
    year = draw(st.integers(1, 9999).filter(lambda y: y % 4 or (y % 100 == 0 and y % 400)))
    good = _canonical(when, draw(st.booleans()))
    return draw(st.sampled_from([
        f"{year:04d}/02/29" + good[10:],  # Feb 29 in a non-leap year
        good[:5] + "13" + good[7:],       # month 13
        good[:5] + "00" + good[7:],       # month 0
        good[:8] + "32" + good[10:],      # day 32
        good[:11] + "24" + good[13:],     # 24:00
        good[:14] + "60" + good[16:],     # minute 60
        good[:17] + "60" + good[19:],     # second 60
        "0000" + good[4:],                # year 0
    ]))


@settings(max_examples=600, deadline=None)
@given(st.one_of(canonical_timestamps(), odd_timestamps(), impossible_timestamps()))
def test_parse_timestamp_matches_strptime(text):
    assert _outcome(ingest.parse_timestamp, text) == _outcome(_strptime_reference, text)


def test_parse_timestamp_known_values():
    assert ingest.parse_timestamp("1970/01/01 00:00:00") == 0.0
    assert ingest.parse_timestamp("2011/08/10 09:46:53.047277") == 1312969613.047277
    assert ingest.parse_timestamp("1969/12/31 23:59:59.999999") == -1e-06
    assert ingest.parse_timestamp("2011/8/10 9:46:53.5") == 1312969613.5  # strptime's path
    for text in ("2011/02/29 00:00:00", "2011/08/10 24:00:00", "2011/08/10 00:00:60",
                 "0000/01/01 00:00:00", "2011/08/10T09:46:53", ""):
        with pytest.raises(ValueError):
            ingest.parse_timestamp(text)


def test_non_ascii_digits_take_the_strptime_path(monkeypatch):
    # strptime reads full-width digits in the date and time but not in the
    # fraction; int() reads them everywhere, so only the path taken tells.
    seen, fallback = [], ingest._strptime_timestamp
    monkeypatch.setattr(ingest, "_strptime_timestamp",
                        lambda text: seen.append(text) or fallback(text))
    year, frac = "２０１１/08/10 09:46:53.047277", "2011/08/10 09:46:53.04727７"
    assert ingest.parse_timestamp(year) == 1312969613.047277
    with pytest.raises(ValueError):
        ingest.parse_timestamp(frac)
    assert seen == [year, frac]


def test_fixture_captures_take_the_fast_path(tmp_path, monkeypatch):
    # strptime would give the same bits, only slower; nothing else would notice.
    fx = make_fixture(tmp_path)

    def no_fallback(text):
        raise AssertionError(f"{text!r} left the fast path")

    monkeypatch.setattr(ingest, "_strptime_timestamp", no_fallback)
    flows, stats = ingest.read_dataset([fx["train"], fx["test"]])
    assert stats.errors == 0
    assert len(flows) == stats.parsed > 100_000


def test_day_cache_stays_within_its_bound():
    cache = ingest._day_seconds
    bound = cache.cache_info().maxsize
    assert bound is not None
    cache.cache_clear()
    for day in range(bound + 500):
        ingest.parse_timestamp(_canonical(datetime.fromordinal(700_000 + day)))
    info = cache.cache_info()
    assert info.misses == bound + 500
    assert info.currsize == bound
