import hashlib

import pytest

from exact_counts import check_row


# d of the 4-edge family graph is 13; a row that compared d with a str, or
# never compared it, would pass with 12 too.
@pytest.mark.parametrize("want, ok", [(13, True), (12, False), ("13", False)])
def test_check_row(tmp_path, capsys, want, ok):
    assert check_row("family --m 4", "count", want, 30, 150, str(tmp_path)) is ok
    line = capsys.readouterr().out
    assert line.startswith("family --m 4 -> count: d ok, " if ok else f"family --m 4 -> count: d = 13, recorded {want!r}, ")


# Any command but count is checked on the SHA-256 of what it writes.
@pytest.mark.parametrize("d, ok", [(13, True), (12, False)])
def test_check_row_digest(tmp_path, capsys, d, ok):
    want = hashlib.sha256(f"m,d,f,f_sqrt_m,theorem_bound\n4,{d},0.8125,1.625,0.707106781187\n".encode()).hexdigest()
    assert check_row(None, "scan --m-min 4 --m-max 4", want, 30, 150, str(tmp_path)) is ok
    line = capsys.readouterr().out
    assert line.startswith("scan --m-min 4 --m-max 4: " + ("sha256 ok, " if ok else "sha256 = '"))


def test_check_row_over_time(tmp_path, capsys):
    assert check_row("family --m 4", "count", 13, 0.001, 150, str(tmp_path)) is False
    assert capsys.readouterr().out.startswith("family --m 4 -> count: over 0.001 s, ")
