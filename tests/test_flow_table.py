"""The batch reader's FlowTable against the record path it replaced.

``read_dataset`` reads captures into columns and ``aggregate_flows``
reduces a table with arrays. Their oracle is the record path: every
capture through ``iter_flows``, stably sorted by start time, and
aggregated by ``AggBuilder``. Drawn captures hold shuffled rows, equal
start times, odd timestamp forms and every kind of bad row.
"""

import contextlib
import csv
import io
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from botdet import features as feat
from botdet import ingest
from botdet.errors import ParseError

HEADER = ",".join(ingest.CSV_FIELD_ORDER)
FIELD_LIMIT = 200  # csv's field size limit while a test reads, so a csv.Error is cheap to draw

_TIMES = ["2011/08/10 09:46:53.047277", "2011/08/10 09:46:53.047277", "2011/08/10 09:47:00",
          "2011/08/10 09:47:10.500000", "2011/08/10 09:49:59.999999", "2011/08/10 10:00:00",
          "2011/8/10 9:48:01.25", "2011/08/10  09:50:02", "2011/08/11 00:00:00.000001",
          "2011/08/10 09:46:53.047277 ", "２０１１/08/10 09:46:53.047277",
          "0001/01/01 00:00:00.000001", "9999/12/31 23:59:59.999999"]
_GOOD = {
    "Dur": st.one_of(st.floats(0.0, 1e4).map(repr), st.sampled_from(["0", " 3.5 ", "1e-3", "-0.0"])),
    "Proto": st.sampled_from(["tcp", "UDP", " icmp ", "", "Tcp", "gre"]),
    "SrcAddr": st.sampled_from(["147.32.84.165", " 10.0.0.1 ", "10.0.0.1", "fe80::1", "é"]),
    "Sport": st.sampled_from(["1025", "0x0400", "", " 53 ", "2000"]),
    "Dir": st.sampled_from(["->", "<->", ""]),
    "DstAddr": st.sampled_from(["147.32.80.9", "1.2.3.4 ", "1.2.3.4", "a,b"]),
    "Dport": st.sampled_from(["53", "25", "443", "80", "0x0035", "6881", "", " 80"]),
    "State": st.sampled_from(["CON", "INT", "S_RA", "FSPA_FSPA", "RSTO", "", " urp "]),
    "Label": st.sampled_from(["flow=From-Botnet-V42", " flow=To-Normal-V44 ", "Background",
                              "flow=Background-UDP\t", "normal botnet"]),
}
# Each bad kind, as an edit of a good row's values; bytes-level kinds are
# applied to the written line.
_BAD = {
    "non-numeric": lambda v: {**v, "TotPkts": "1.5"},
    "non-finite": lambda v: {**v, "Dur": "nan"},
    "negative": lambda v: {**v, "Dur": "-0.5"},
    "src above total": lambda v: {**v, "SrcBytes": str(int(v["TotBytes"]) + 1)},
    "empty address": lambda v: {**v, "DstAddr": "   "},
    "count above int64": lambda v: {**v, "TotBytes": str(2**63), "SrcBytes": "0"},
    "bad time": None, "short": None, "not UTF-8": None, "csv error": None,
}
# Canonical in form but impossible, and not a timestamp at all.
_BAD_TIMES = ["2011/13/01 00:00:00", "2011/02/29 10:00:00", "2011/08/10 24:00:00.000000",
              "2011/08/10 09:60:00", "2011/08/10 09:00:60", "0000/01/01 00:00:00", "",
              "2011/08/10T09:00:00"]


@st.composite
def rows(draw):
    """One capture line as bytes, good or bad, and maybe a blank line before it."""
    tot = draw(st.integers(0, 10**7))
    values = {"StartTime": draw(st.sampled_from(_TIMES)), "sTos": "0", "dTos": "0",
              "TotPkts": str(draw(st.integers(0, 10**5))), "TotBytes": str(tot),
              "SrcBytes": str(draw(st.integers(0, tot))),
              **{k: draw(s) for k, s in _GOOD.items()}}
    kind = draw(st.one_of(st.none(), st.none(), st.sampled_from(sorted(_BAD))))
    if _BAD.get(kind):
        values = _BAD[kind](values)
    if kind == "csv error":
        values["Label"] = "x" * (FIELD_LIMIT + 1)
    elif kind == "bad time":
        values["StartTime"] = draw(st.sampled_from(_BAD_TIMES))
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([values[c] for c in ingest.CSV_FIELD_ORDER])
    line = out.getvalue().encode()
    if kind == "short":
        line = line[:draw(st.integers(0, 40))].rsplit(b",", 1)[0] or b"x"
    elif kind == "not UTF-8":
        line += b"\xe9"
    return (b"\n" if draw(st.booleans()) else b"") + line


@st.composite
def captures(draw):
    """1-3 files of drawn lines, each in a drawn order."""
    files = []
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(st.permutations(draw(st.lists(rows(), max_size=14))))
        files.append(HEADER.encode() + b"\r\n" + b"\r\n".join(lines) + b"\r\n")
    return files


@contextlib.contextmanager
def field_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def _write(tmp_path, files):
    paths = []
    for i, data in enumerate(files):
        path = tmp_path / f"cap{i}.binetflow"
        path.write_bytes(data)
        paths.append(path)
    return paths


def _record_path(paths, strict=False):
    """The records, stats and strict-mode error as the record path reads the captures."""
    stats = ingest.IngestStats()
    try:
        flows = [f for p in paths for f in ingest.iter_flows(p, strict=strict, stats=stats)]
    except ParseError as exc:
        return None, None, str(exc)
    flows.sort(key=lambda f: f.start_time)
    return flows, stats, None


def _table_path(paths, strict=False):
    try:
        table, stats = ingest.read_dataset(paths, strict=strict)
    except ParseError as exc:
        return None, None, str(exc)
    return table, stats, None


def _row_bits(rows_):
    return [(r.src_addr, r.window_index, r.first_seen, r.label, r.values.dtype,
             r.values.tobytes()) for r in rows_]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(captures(), st.sampled_from([0.3, 1.0, 7.5, 60.0, 2.0 / 3.0, 1e-12]), st.floats(0.0, 90.0))
def test_the_table_reads_and_aggregates_as_the_record_path(tmp_path, files, window_seconds,
                                                           before):
    paths = _write(tmp_path, files)
    with field_limit(FIELD_LIMIT):
        want, want_stats, _ = _record_path(paths)
        table, stats, _ = _table_path(paths)
        for strict in (False, True):
            assert _table_path(paths, strict)[2] == _record_path(paths, strict)[2]
    assert stats.files == want_stats.files  # path, parsed, errors, first_error per file
    assert len(table) == len(want)
    assert list(table) == want
    if want:
        for t0 in (want[0].start_time, want[0].start_time - before):
            assert (_row_bits(feat.aggregate_flows(table, t0, window_seconds))
                    == _row_bits(feat.aggregate_flows(want, t0, window_seconds)))


def test_a_table_refuses_a_late_origin_as_the_records_do(tmp_path):
    (path,) = _write(tmp_path, [HEADER.encode() + b"\n2011/08/10 09:00:00,1,tcp,a,1,->,b,80,"
                                b"CON,0,0,1,10,5,x\n"])
    table, _ = ingest.read_dataset([path])
    (flow,) = table
    t = flow.start_time
    for source in (table, list(table)):
        with pytest.raises(ValueError, match="precedes stream origin"):
            feat.aggregate_flows(source, t + 1.0, 60.0)
        with pytest.raises(ValueError, match="window_seconds must be positive"):
            feat.aggregate_flows(source, t, 0.0)


def _ten_years_apart(tmp_path):
    """A table of two flows of one host, ten years apart, and its records."""
    (path,) = _write(tmp_path, [HEADER.encode()
                                + b"\n2001/01/01 00:00:00,1,tcp,a,1,->,b,80,CON,0,0,1,10,5,x"
                                + b"\n2011/01/01 00:00:00,1,tcp,a,1,->,b,80,CON,0,0,1,10,5,x\n"])
    table, _ = ingest.read_dataset([path])
    return table, list(table)


def test_flows_ten_years_apart_at_one_second_windows_aggregate_in_bounded_memory(tmp_path):
    table, flows = _ten_years_apart(tmp_path)
    t0 = flows[0].start_time
    tracemalloc.start()
    try:
        got = feat.aggregate_flows(table, t0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.window_index for r in got] == [0, 3652 * 86400]
    assert peak < 1_000_000
    assert _row_bits(got) == _row_bits(feat.aggregate_flows(flows, t0, 1.0))


def test_aggregating_a_table_never_iterates_it(tmp_path, monkeypatch):
    # At 1e-12 s windows the later flow's window number is near 3e20, past int64.
    table, flows = _ten_years_apart(tmp_path)
    t0 = flows[0].start_time

    def iterate(self):
        raise AssertionError("a FlowTable was iterated")

    monkeypatch.setattr(ingest.FlowTable, "__iter__", iterate)
    got = feat.aggregate_flows(table, t0, 1e-12)
    assert got[-1].window_index > 2**63
    assert _row_bits(got) == _row_bits(feat.aggregate_flows(flows, t0, 1e-12))


def test_a_count_above_int64_is_a_named_bad_row_in_both_readers(tmp_path):
    row = "2011/08/10 09:00:00,1,tcp,a,1,->,b,80,CON,0,0,{},{},0,x"
    (path,) = _write(tmp_path, [(HEADER + "\n" + row.format(1, 2**63 - 1) + "\n"
                                 + row.format(2**63, 2**63) + "\n"
                                 + row.format(1, 2**63) + "\n").encode()])
    message = f"{path}:3: TotPkts or TotBytes above 2**63 - 1"
    table, stats = ingest.read_dataset([path])
    flows, want_stats, _ = _record_path([path])
    assert list(table) == flows and [f.tot_bytes for f in flows] == [2**63 - 1]
    assert stats.files == want_stats.files
    assert (stats.files[0].errors, stats.files[0].first_error) == (2, message)
    with pytest.raises(ParseError, match=message.replace("*", r"\*")):
        ingest.read_dataset([path], strict=True)


def test_byte_sums_past_2_53_and_past_int64_keep_the_exact_sums_bits(tmp_path):
    # Each sum is the exact integer sum rounded once to float64, as AggBuilder's
    # Python-int sums are; adding the counts as floats would lose the +1s.
    lines = [f"2011/08/10 09:00:0{i},1,tcp,{host},1,->,b,80,CON,0,0,1,{n},0,x"
             for i, (host, n) in enumerate([("a", 2**53 + 1)] * 3 + [("b", 2**62 + 1)] * 3)]
    (path,) = _write(tmp_path, [(HEADER + "\n" + "\n".join(lines) + "\n").encode()])
    table, _ = ingest.read_dataset([path])
    flows = list(table)
    got = feat.aggregate_flows(table, flows[0].start_time, 60.0)
    sums = {r.src_addr: r.value("sum_bytes") for r in got}
    assert sums == {"a": float(3 * (2**53 + 1)), "b": float(3 * (2**62 + 1))}
    assert sums["a"] != 3 * float(2**53 + 1)
    assert _row_bits(got) == _row_bits(feat.aggregate_flows(flows, flows[0].start_time, 60.0))


# Kinds of DstAddr, Sport and Dport values, which the table keeps as string
# arrays and codes by sorting. Each is drawn with Unicode whitespace around
# it, which str.strip removes; a NUL is not whitespace, and stays.
_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000"
_VALUE_KINDS = [
    st.sampled_from(["147.32.80.9", "1.2.3.4", "53", "80", "443", "25", "6881"]),
    st.sampled_from(["é", "fe80::é", "日本", "٥٣", "８０", "²", "\u200b80"]),
    st.sampled_from(["\x00", "a\x00", "\x00b", "1.2\x003", "80\x00", "\x0053", "53\x00\x00"]),
    st.sampled_from(["0x0035", "0X50", "0x1bb", "000053", "0000080", "65536", "123456",
                     "1_0", "+80", "-1", "0x", "", "9" * 30]),
    st.text(max_size=6),
]


@st.composite
def _text_value(draw):
    pad = st.text(st.sampled_from(_SPACE), max_size=2)
    return draw(pad) + draw(st.one_of(_VALUE_KINDS)) + draw(pad)


@st.composite
def _string_field_captures(draw):
    """1-2 files whose DstAddr, Sport and Dport are drawn; maybe one value is 100,000 characters."""
    files = []
    for _ in range(draw(st.integers(1, 2))):
        lines = []
        for _ in range(draw(st.integers(0, 10))):
            values = {"StartTime": draw(st.sampled_from(_TIMES[:6])), "Dur": "0.5",
                      "Proto": draw(st.sampled_from(["tcp", "udp", "TCP ", "UDP", " tcp "])),
                      "SrcAddr": draw(st.sampled_from(["10.0.0.1", "10.0.0.2"])),
                      "Dir": "->", "State": "CON", "sTos": "0", "dTos": "0",
                      "TotPkts": "2", "TotBytes": "100", "SrcBytes": "40", "Label": "x",
                      **{c: draw(_text_value()) for c in ("Sport", "DstAddr", "Dport")}}
            lines.append([values[c] for c in ingest.CSV_FIELD_ORDER])
        files.append(lines)
    column = draw(st.sampled_from([None, "Sport", "DstAddr", "Dport"]))
    if column is not None and files[0]:
        files[0][0][ingest.CSV_FIELD_ORDER.index(column)] = draw(
            st.sampled_from(["x", "9", "é"])) * 100_000
    out = []
    for lines in files:
        text = io.StringIO()
        csv.writer(text).writerows([ingest.CSV_FIELD_ORDER, *lines])
        out.append(text.getvalue().encode())
    return out


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_string_field_captures(), st.sampled_from([1.0, 60.0]))
def test_string_fields_read_and_aggregate_as_the_record_path(tmp_path, files, window_seconds):
    paths = _write(tmp_path, files)
    want, want_stats, _ = _record_path(paths)
    table, stats, _ = _table_path(paths)
    assert _table_path(paths, True)[2] == _record_path(paths, True)[2]
    assert stats.files == want_stats.files
    assert list(table) == want
    for rec in [*want, *table]:
        assert rec.service == ingest.service_of(rec.proto, rec.dst_port)
    if want:
        t0 = want[0].start_time
        assert (_row_bits(feat.aggregate_flows(table, t0, window_seconds))
                == _row_bits(feat.aggregate_flows(want, t0, window_seconds)))


def test_text_values_that_differ_only_after_a_nul_keep_their_own_codes(tmp_path):
    """numpy's StringDType compares two strings only up to a NUL, so \\x00\\x80 == \\x0053 there."""
    row = "2011/08/10 09:00:00,1,tcp,a,{},->,{},{},CON,0,0,2,100,40,x"
    values = ["\x00\x80", "\x0053", "a\x00b", "a\x00c", "53"]
    (path,) = _write(tmp_path, [(HEADER + "\n" + "".join(row.format(v, f"b{v}", v) + "\n"
                                                        for v in values)).encode()])
    table, _ = ingest.read_dataset([path])
    flows, _, _ = _record_path([path])
    assert [f.src_port for f in flows] == values
    assert list(table) == flows


def test_a_table_derives_each_protocol_and_port_pairs_service_once(tmp_path, monkeypatch):
    # 60 flows over 2 hosts and 4 (proto, port) pairs, each pair repeated;
    # hex and spaced forms of port 53 are pairs of their own.
    pairs = [("tcp", "80"), ("udp", "0x0035"), ("TCP", " 53"), ("udp", "53")]
    rows = [f"2011/08/10 09:00:{i % 60:02d},1,{pairs[i % 4][0]},h{i % 2},1,->,b,"
            f"{pairs[i % 4][1]},CON,0,0,1,10,5,x" for i in range(60)]
    (path,) = _write(tmp_path, [(HEADER + "\n" + "\n".join(rows) + "\n").encode()])
    table, _ = ingest.read_dataset([path])
    flows = list(table)
    want = feat.aggregate_flows(flows, flows[0].start_time, 30.0)
    calls = []

    def counted(proto, dst_port):
        calls.append((proto, dst_port))
        return ingest.service_of(proto, dst_port)

    monkeypatch.setattr(feat, "service_of", counted)
    got = feat.aggregate_flows(table, flows[0].start_time, 30.0)
    assert sorted(calls) == sorted({(f.proto, f.dst_port) for f in flows})
    assert len(calls) == 4 < len(table)
    assert _row_bits(got) == _row_bits(want)
    assert {r.value("service_dns") for r in got} != {0.0}


def test_a_long_value_costs_its_own_length_not_its_chunks(tmp_path):
    # One 100,000-character DstAddr among 1,000 flows: a fixed-width array
    # as wide as it would take 100 MB for the chunk.
    rows = [f"2011/08/10 09:00:00,1,tcp,a,{i},->,{'x' * 100_000 if i == 0 else i},80,"
            "CON,0,0,1,10,5,x" for i in range(1000)]
    (path,) = _write(tmp_path, [(HEADER + "\n" + "\n".join(rows) + "\n").encode()])
    tracemalloc.start()
    try:
        table, _ = ingest.read_dataset([path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 1000 and len(table.vocab["dst_addr"]) == 1000
    assert peak < 5_000_000
