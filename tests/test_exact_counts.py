import pytest

from exact_counts import check_row
from helpers import few_vertex_d


# d of the 4-edge family graph is 13; a row that compared d with a str, or
# never compared it, would pass with 12 too.
@pytest.mark.parametrize("want, ok", [(13, True), (12, False), ("13", False), (few_vertex_d, True)])
def test_check_row(tmp_path, capsys, want, ok):
    assert check_row("family --m 4", want, str(tmp_path)) is ok
    line = capsys.readouterr().out
    assert line.startswith("family --m 4: d ok, " if ok else f"family --m 4: d = 13, recorded {want!r}, ")
