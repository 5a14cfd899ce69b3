"""Files written by `xq`: overwritten in place and cut to length, pipes and
devices written without truncation, and unwritable paths as exit 2."""

import errno
import os
import stat
import threading

import pytest

from xq.cli import run


def shipped(structures_dir, name):
    return os.path.join(structures_dir, name)


def check_d(structures_dir, out) -> list[str]:
    return ["check", shipped(structures_dir, "sphere_D.json"), "--out", str(out)]


def fresh_report(structures_dir, tmp_path, capsys) -> bytes:
    path = tmp_path / "fresh.json"
    assert run(check_d(structures_dir, path)) == 0
    capsys.readouterr()
    return path.read_bytes()


@pytest.fixture
def fd_log(monkeypatch):
    """The descriptors `write_text` opens, closes and truncates, and the
    flags it opens them with."""
    log = {"open": [], "close": [], "ftruncate": [], "flags": []}
    for name in ("open", "close", "ftruncate"):
        real = getattr(os, name)

        def wrapped(*args, _real=real, _name=name):
            result = _real(*args)
            log[_name].append(result if _name == "open" else args[0])
            if _name == "open":
                log["flags"].append(args[1])
            return result
        monkeypatch.setattr(os, name, wrapped)
    return log


def test_report_over_a_larger_file_leaves_exactly_the_report(structures_dir, tmp_path,
                                                             capsys, fd_log):
    want = fresh_report(structures_dir, tmp_path, capsys)
    path = tmp_path / "old.json"
    path.write_bytes(b"x" * 100_000)
    assert run(check_d(structures_dir, path)) == 0
    capsys.readouterr()
    assert path.read_bytes() == want
    assert len(fd_log["ftruncate"]) == 2
    assert sorted(fd_log["open"]) == sorted(fd_log["close"])
    assert fd_log["flags"] == [os.O_WRONLY | os.O_CREAT] * 2


def test_same_path_for_out_and_witness_holds_the_witness(structures_dir, tmp_path, capsys):
    argv = ["homotopic", shipped(structures_dir, "retraction_pair.json"),
            "--f", shipped(structures_dir, "retraction_pr1.json"),
            "--g", shipped(structures_dir, "retraction_pr1_twisted.json")]
    apart, report, both = tmp_path / "w.json", tmp_path / "r.json", tmp_path / "both.json"
    assert run(argv + ["--witness", str(apart), "--out", str(report)]) == 0
    both.write_bytes(b"z" * 100_000)
    assert run(argv + ["--witness", str(both), "--out", str(both)]) == 0
    capsys.readouterr()
    # the report is written first, then the witness over it
    assert len(report.read_bytes()) < len(apart.read_bytes()) < 100_000
    assert both.read_bytes() == apart.read_bytes()


def test_out_through_a_pipe_delivers_the_report_untruncated(structures_dir, tmp_path,
                                                            capsys, fd_log):
    want = fresh_report(structures_dir, tmp_path, capsys)
    fd_log["ftruncate"].clear()
    read_end, write_end = os.pipe()
    chunks = []

    def drain():
        with os.fdopen(read_end, "rb") as fh:
            chunks.append(fh.read())
    reader = threading.Thread(target=drain)
    reader.start()
    try:
        assert run(check_d(structures_dir, f"/dev/fd/{write_end}")) == 0
    finally:
        os.close(write_end)
        reader.join(timeout=30)
    assert not reader.is_alive()
    capsys.readouterr()
    assert chunks == [want]
    assert fd_log["ftruncate"] == []


def test_new_file_gets_the_mode_a_text_open_gives(structures_dir, tmp_path, capsys):
    old = os.umask(0o002)
    try:
        with open(tmp_path / "plain.json", "w", encoding="utf-8"):
            pass
        assert run(check_d(structures_dir, tmp_path / "new.json")) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    mode = stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.json").st_mode) == 0o664


def test_symlink_out_writes_the_file_it_points_to(structures_dir, tmp_path, capsys):
    want = fresh_report(structures_dir, tmp_path, capsys)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"y" * 50_000)
    link.symlink_to(target)
    assert run(check_d(structures_dir, link)) == 0
    capsys.readouterr()
    assert link.is_symlink()
    assert target.read_bytes() == want


def read_only_file(tmp_path, monkeypatch):
    """A file mode 0o444.  A process that may write it anyway (root) meets
    the EACCES an unprivileged one gets from opening it."""
    path = tmp_path / "ro.json"
    path.write_text("old\n")
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        real_open = os.open

        def refuse(p, flags, *args):
            if os.fspath(p) == str(path) and flags & os.O_WRONLY:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), p)
            return real_open(p, flags, *args)
        monkeypatch.setattr(os, "open", refuse)
    return path, "Permission denied"


@pytest.mark.parametrize("case", ["missing-directory", "directory", "read-only", "full-device"])
def test_unwritable_out_is_exit_2_with_one_line(structures_dir, tmp_path, capsys,
                                                monkeypatch, case):
    if case == "missing-directory":
        path, reason = tmp_path / "missing" / "r.json", "No such file or directory"
    elif case == "directory":
        path, reason = tmp_path, "Is a directory"
    elif case == "read-only":
        path, reason = read_only_file(tmp_path, monkeypatch)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        path, reason = "/dev/full", "No space left on device"
    closed = []
    real_close = os.close
    monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or real_close(fd))
    assert run(check_d(structures_dir, path)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {path}: {reason}\n"
    assert captured.out.endswith("OK\n")
    assert len(closed) == (1 if case == "full-device" else 0)
    if case == "read-only":
        assert path.read_text() == "old\n"

