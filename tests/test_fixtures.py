"""The line rule every fixture file shares, and the error that names a file line."""

import io

import pytest

from websift.agents import load_credentials
from websift.augment import GeoIpDb, WhoIsDb, _load_suffixes
from websift.cli import _read_seed_file
from websift.fixtures import FixtureFormatError, fixture_lines, fixture_rows
from websift.labels import SignatureSet, UrlBlacklist

NEWLINES = ["\n", "\r\n", "\r"]

# loader, a valid entry line, a line it rejects
LOADERS = {
    "blacklist": (UrlBlacklist.from_file, "MALWARE\t" + "ab" * 32, "MALWARE no-tab"),
    "signatures": (SignatureSet.from_file, "S:4142", "S:4"),
    "geoip": (GeoIpDb.from_file, "10.0.0.0,10.0.0.9,DE,Berlin", "10.0.0.0,10.0.0.9,DE"),
    "whois": (WhoIsDb.from_file, "example.com,2017-01-01,2017-03-02",
              "example.com,2017-01-01"),
    "credentials": (load_credentials, "site.test,alice,s3cret", "site.test,alice"),
}


@pytest.mark.parametrize("newline", NEWLINES, ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_names_the_file_line_of_a_bad_entry(tmp_path, name, newline):
    load, valid, bad = LOADERS[name]
    path = tmp_path / "fixture"
    path.write_bytes(newline.join(["# comment", "", valid, bad, ""]).encode())
    with pytest.raises(FixtureFormatError) as exc:
        load(path)
    assert exc.value.line == 4


@pytest.mark.parametrize("newline", NEWLINES, ids=["lf", "crlf", "cr"])
def test_seeds_and_suffixes_skip_the_same_lines(tmp_path, newline):
    path = tmp_path / "fixture"
    lines = ["# comment", "", "  ", "  # indented", " entry ", ""]
    path.write_bytes(newline.join(lines).encode())
    assert _read_seed_file(str(path)) == ["entry"]
    assert _load_suffixes(path) == frozenset(["entry"])


def test_a_form_feed_inside_a_signature_comment_stays_in_the_comment():
    assert len(SignatureSet.from_text("# a\x0cb\nS:41\n")) == 1


def test_a_comment_is_decided_per_line_before_csv_parsing():
    text = '# "quoted,\n"#host",user,pw\n'
    assert list(fixture_rows(io.StringIO(text), "host,user,password")) == [
        (2, ["#host", "user", "pw"])]
    assert list(fixture_lines(["#a", "b #c"])) == [(2, "b #c")]


def test_a_cell_over_the_csv_field_limit_is_a_format_error():
    with pytest.raises(FixtureFormatError) as exc:
        list(fixture_rows(["a," + "x" * 200_000], "key,value"))
    assert exc.value.line == 1
