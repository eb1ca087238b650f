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
