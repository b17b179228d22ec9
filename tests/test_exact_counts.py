import hashlib
import subprocess

import pytest

from exact_counts import check_row
from helpers import src_env


@pytest.fixture(autouse=True)
def src_on_pythonpath(monkeypatch):
    """Children under -S skip site-packages, so an editable install reaches them only through PYTHONPATH."""
    monkeypatch.setenv("PYTHONPATH", src_env()["PYTHONPATH"])


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


# Only estimate needs numpy, so every other row's children, gen and the
# command, run under -S, with site-packages off the path.
def test_check_row_site_packages(tmp_path, monkeypatch):
    argvs = []

    class Recording(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            argvs.append(args)
            super().__init__(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    estimate_sha256 = "a7d8ff0da16d8bdee5bbbb482bd7c47ee2763b626478b312874a46b4916a1302"
    for cmd, want, bare in [("count", 13, True), ("estimate --samples 100 --seed 1", estimate_sha256, False)]:
        argvs.clear()
        assert check_row("family --m 4", cmd, want, 30, 150, str(tmp_path)), cmd
        assert len(argvs) == 2 and all(("-S" in argv) is bare for argv in argvs), argvs
