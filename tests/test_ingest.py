"""Flow CSV parsing: field handling, labels, lenient/strict modes, merge order."""

import pytest

from botdet import ingest
from botdet.errors import DataError, ParseError
from botdet.ingest import FlowRecord, GroundTruth

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
        stream, _ = ingest.read_dataset([tmp_path / "nope.csv"])
        with pytest.raises(DataError, match="cannot open"):
            list(stream)


class TestScanTimeBounds:
    def test_bounds(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", [ROW_TCP, ROW_UDP, ROW_NORMAL])
        lo, hi = ingest.scan_time_bounds(f)
        assert ingest.format_timestamp(lo).endswith("09:46:53.047277")
        assert ingest.format_timestamp(hi).endswith("09:47:30.250000")

    def test_no_rows_fatal(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text(HEADER + "\n")
        with pytest.raises(DataError):
            ingest.scan_time_bounds(f)


def test_port_number_forms():
    assert ingest.port_number("53") == 53
    assert ingest.port_number("0x0035") == 53
    assert ingest.port_number("") is None
    assert ingest.port_number("junk") is None
