import json
import os
import signal
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

import pytest

import hclat
from hclat import cli, genera, verify
from hclat.exact import INDEX_MAX
from hclat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBernoulliCommand:
    def test_json_single(self, capsys):
        code, out = run_cli(capsys, "bernoulli", "--n", "6")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "n": "6",
            "abs_num": "691",
            "abs_den": "2730",
            "num4": "691",
            "j": "65520",
        }

    def test_json_range(self, capsys):
        code, out = run_cli(capsys, "bernoulli", "--n", "3", "--range")
        assert code == 0
        data = json.loads(out)
        assert [row["j"] for row in data] == ["24", "240", "504"]

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "bernoulli", "--n", "2", "--range", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,abs_num,abs_den,num4,j"
        assert lines[1] == "1,1,6,1,24"

    def test_text(self, capsys):
        code, out = run_cli(capsys, "bernoulli", "--n", "1", "--format", "text")
        assert code == 0
        assert "j=24" in out


class TestCoeffsCommand:
    def test_l_genus(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--genus", "L", "--m", "2")
        data = json.loads(out)
        assert data["coeff_p_top"] == {"num": "7", "den": "45"}
        assert data["coeff_p_half_sq"] == {"num": "-1", "den": "45"}

    def test_stolz_combination(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--genus", "S", "--m", "2")
        data = json.loads(out)
        assert data["coeff_p_top"] == {"num": "0", "den": "1"}
        assert data["coeff_p_half_sq"] == {"num": "1", "den": "4"}


class TestPlumbingCommand:
    def test_even(self, capsys):
        code, out = run_cli(capsys, "plumbing", "--m", "2")
        data = json.loads(out)
        assert data["sigma_m"] == "224"
        assert data["bp_order"] == "28"
        assert data["pk2_Q"] == "32"
        assert data["s_Q"] == "-1"
        assert data["bezout"] == {
            "c": "1",
            "d": "0",
            "for_numerator": "1",
            "for_denominator": "240",
        }

    def test_odd(self, capsys):
        code, out = run_cli(capsys, "plumbing", "--m", "3")
        data = json.loads(out)
        assert data["sigma_m"] == "7936"
        assert data["pk2_Q"] is None
        assert data["s_Q"] == "0"
        assert data["bezout"] is None

    def test_invalid_ord(self, capsys):
        code, _ = run_cli(capsys, "lattice", "--m", "3", "--ord", "2")
        assert code == 1


class TestLatticeCommand:
    def test_json(self, capsys):
        code, out = run_cli(capsys, "lattice", "--m", "2")
        data = json.loads(out)
        assert data["structure"] == "Z + Z"
        assert data["generators"][1]["sigma"] == "1"

    def test_sig4_csv(self, capsys):
        code, out = run_cli(
            capsys, "lattice", "--m", "2", "--variant", "sig4", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "label,sigma,ahat,p_top,p_half_sq"
        assert lines[2] == "4*HP2,4,0,28,16"


class TestMinimalCommand:
    def test_m_6(self, capsys):
        code, out = run_cli(capsys, "minimal", "--m", "6")
        data = json.loads(out)
        assert data["minimal_signature"] == "512"
        assert data["exponent_i"] == "-4"
        assert data["minimal_ahat"] == "1"


class TestBundleCommand:
    def test_m_3(self, capsys):
        code, out = run_cli(capsys, "bundle", "--m", "3")
        data = json.loads(out)
        assert data["signature_divisor"] == "7936"
        assert data["ahat_divisor"] == "2"
        assert data["signature_4_realizable"] is False
        assert data["non_admissible_signature_divisor"] == "3968"

    def test_m_4(self, capsys):
        code, out = run_cli(capsys, "bundle", "--m", "4")
        data = json.loads(out)
        assert data["signature_divisor"] == "4"
        assert data["signature_4_realizable"] is True


class TestKappaCommand:
    def test_m_2(self, capsys):
        code, out = run_cli(capsys, "kappa-basis", "--m", "2")
        data = json.loads(out)
        assert data["basis"][0]["coeff_p_top"] == {"num": "1", "den": "1440"}
        assert data["basis"][1]["coeff_p_half_sq"] == {"num": "1", "den": "16"}


class TestVerifyCommand:
    def test_verified_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "gcd-power-of-two", "--max", "40")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "verified"

    def test_text_format(self, capsys):
        code, out = run_cli(
            capsys, "verify", "identity-suite", "--max", "6", "--format", "text"
        )
        assert code == 0
        assert "identity-suite: verified" in out

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "verify", "numerator-coprimality", "--max", "20", "--format", "csv"
        )
        assert code == 0
        assert out.startswith("m,kind,detail")

    def test_checkpoint_flag(self, capsys, tmp_path):
        ckpt = tmp_path / "c.json"
        code, _ = run_cli(
            capsys,
            "verify",
            "gcd-power-of-two",
            "--max",
            "30",
            "--checkpoint",
            str(ckpt),
        )
        assert code == 0
        assert ckpt.exists()


class TestErrorHandling:
    def test_usage_error_is_exit_1(self, capsys):
        assert main(["bogus-command"]) == 1

    def test_domain_error_is_exit_1(self, capsys):
        assert main(["lattice", "--m", "1"]) == 1

    def test_missing_required_is_exit_1(self, capsys):
        assert main(["bernoulli"]) == 1

    def test_choices_are_the_library_names(self):
        # the parser holds its own copies so that building it imports neither module
        assert cli.GENUS_CHOICES == genera.GENERA + ("S",)
        assert list(cli.CLAIM_CHOICES) == sorted(verify.CLAIMS)

    @pytest.mark.parametrize(
        "argv,choices",
        [
            (["coeffs", "--genus", "Q", "--m", "4"], "{L,Ahat,Ph,AhatPh,S}"),
            (["verify", "nope"], "{gcd-power-of-two,identity-suite,numerator-coprimality}"),
        ],
    )
    def test_a_bad_choice_prints_the_usage_with_every_choice(self, capsys, argv, choices):
        assert main(argv) == 1
        assert choices in capsys.readouterr().err

    @pytest.mark.parametrize("m", [10**12, 10**20])
    def test_overflowing_index_is_one_error_line(self, capsys, m):
        # a valid int m past the index ceiling
        assert main(["coeffs", "--genus", "Ph", "--m", str(m)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("genus", ["Ph", "AhatPh", "L", "Ahat"])
    @pytest.mark.parametrize("m", [INDEX_MAX + 1, 10**12, 10**20, 10**20 + 1])
    def test_overflow_message_names_m(self, capsys, genus, m):
        message = f"m must be <= {INDEX_MAX}, got {m}"
        assert main(["coeffs", "--genus", genus, "--m", str(m)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        for _ in range(2):  # a raise is not kept
            with pytest.raises(OverflowError) as info:
                genera.genus_coeffs(genus, m)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "command",
        [["coeffs", "--genus", "S"], ["lattice"], ["plumbing"], ["minimal"], ["bundle"],
         ["kappa-basis"]],
        ids=" ".join,
    )
    @pytest.mark.parametrize("m", [INDEX_MAX + 1, INDEX_MAX + 2, 10**12, 10**20, 10**20 + 1])
    def test_overflowing_profile_is_refused_before_the_stream(self, capsys, command, m):
        # an even m is refused at the gate, before its ord reads j_{m/2}
        assert main([*command, "--m", str(m)]) == 1
        message = f"error: m must be <= {INDEX_MAX}, got {m}\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "args,name", [([], "n"), (["--range"], "limit")], ids=["point", "range"]
    )
    @pytest.mark.parametrize("n", [INDEX_MAX + 1, 10**12, 10**20])
    def test_overflowing_bernoulli_index_is_refused(self, capsys, args, name, n):
        assert main(["bernoulli", "--n", str(n), *args]) == 1
        message = f"error: {name} must be <= {INDEX_MAX}, got {n}\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("extra", [[], ["--workers", "2"], ["--checkpoint"]])
    @pytest.mark.parametrize("m_max", [INDEX_MAX + 1, 10**12, 10**20])
    def test_overflowing_identity_suite_range_is_refused(self, capsys, tmp_path, extra, m_max):
        # refused before the scan starts, which sweeps T_1..T_{m_max} first
        if extra == ["--checkpoint"]:
            extra = ["--checkpoint", str(tmp_path / "ident.ckpt")]
        assert main(["verify", "identity-suite", "--max", str(m_max), *extra]) == 1
        message = f"error: m_max must be <= {INDEX_MAX}, got {m_max}\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "ident.ckpt").exists()

    def test_workers_below_one_is_exit_1(self, capsys):
        for claim in verify.CLAIMS:
            assert main(["verify", claim, "--max", "10", "--workers", "0"]) == 1

    def test_workers_past_the_ceiling_is_exit_1(self, capsys):
        # refused before any pool is asked for that many processes
        for claim in verify.CLAIMS:
            assert main(["verify", claim, "--max", "10", "--workers", str(INDEX_MAX + 1)]) == 1
            message = f"error: workers must be <= {INDEX_MAX}, got {INDEX_MAX + 1}\n"
            assert capsys.readouterr().err == message


# exact stdout bytes: key order, indentation and number formatting are all part
# of the output contract, which parsing the JSON back would not notice
GOLDEN = {
    'plumbing --m 2': (
        '{\n'
        '  "m": "2",\n'
        '  "sigma_m": "224",\n'
        '  "bp_order": "28",\n'
        '  "pk2_Q": "32",\n'
        '  "s_Q": "-1",\n'
        '  "bezout": {\n'
        '    "c": "1",\n'
        '    "d": "0",\n'
        '    "for_numerator": "1",\n'
        '    "for_denominator": "240"\n'
        '  }\n'
        '}\n'
    ),
    'plumbing --m 3': (
        '{\n'
        '  "m": "3",\n'
        '  "sigma_m": "7936",\n'
        '  "bp_order": "992",\n'
        '  "pk2_Q": null,\n'
        '  "s_Q": "0",\n'
        '  "bezout": null\n'
        '}\n'
    ),
    'bundle --m 3': (
        '{\n'
        '  "m": "3",\n'
        '  "ord": "1",\n'
        '  "signature_divisor": "7936",\n'
        '  "ahat_divisor": "2",\n'
        '  "signature_4_realizable": false,\n'
        '  "realizable_at_genus": "g >= 5",\n'
        '  "non_admissible_signature_divisor": "3968",\n'
        '  "non_admissible_ahat_divisor": "1"\n'
        '}\n'
    ),
    'minimal --m 6': (
        '{\n'
        '  "m": "6",\n'
        '  "ord": "1",\n'
        '  "minimal_signature": "512",\n'
        '  "exponent_i": "-4",\n'
        '  "minimal_ahat": "1"\n'
        '}\n'
    ),
    'kappa-basis --m 2': (
        '{\n'
        '  "m": "2",\n'
        '  "ord": "1",\n'
        '  "basis": [\n'
        '    {\n'
        '      "coeff_p_top": {\n'
        '        "num": "1",\n'
        '        "den": "1440"\n'
        '      },\n'
        '      "coeff_p_half_sq": {\n'
        '        "num": "-7",\n'
        '        "den": "5760"\n'
        '      }\n'
        '    },\n'
        '    {\n'
        '      "coeff_p_top": {\n'
        '        "num": "0",\n'
        '        "den": "1"\n'
        '      },\n'
        '      "coeff_p_half_sq": {\n'
        '        "num": "1",\n'
        '        "den": "16"\n'
        '      }\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    'coeffs --genus S --m 2': (
        '{\n'
        '  "genus": "S",\n'
        '  "m": "2",\n'
        '  "coeff_p_top": {\n'
        '    "num": "0",\n'
        '    "den": "1"\n'
        '  },\n'
        '  "coeff_p_half_sq": {\n'
        '    "num": "1",\n'
        '    "den": "4"\n'
        '  }\n'
        '}\n'
    ),
    'lattice --m 2 --format csv': (
        'label,sigma,ahat,p_top,p_half_sq\n'
        '(sigma/8)*P,224,-1,1440,0\n'
        'HP2,1,0,7,4\n'
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_stdout(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert out == GOLDEN[command]


class TestExitCodes:
    def test_partial_report_without_counterexample_is_exit_1(self, capsys):
        code, out = run_cli(capsys, "verify", "identity-suite", "--max", "1")
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "partial"
        assert data["counterexamples"] == []


class TestBadCheckpoint:
    def verify_with_checkpoint(self, capsys, path):
        code = main(["verify", "gcd-power-of-two", "--max", "30", "--checkpoint", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_directory_path(self, capsys, tmp_path):
        code, out, err = self.verify_with_checkpoint(capsys, tmp_path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_missing_directory_fails_before_the_scan(self, capsys, tmp_path, monkeypatch):
        def no_scan(payload):
            raise AssertionError("the scan ran before the checkpoint path was tested")

        monkeypatch.setattr(verify, "_check_gcd_power_of_two", no_scan)
        code, out, err = self.verify_with_checkpoint(capsys, tmp_path / "missing" / "c.json")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_empty_path_fails_before_the_scan(self, capsys, monkeypatch):
        def no_scan(payload):
            raise AssertionError("the scan ran with an empty checkpoint path")

        monkeypatch.setattr(verify, "_check_gcd_power_of_two", no_scan)
        code, out, err = self.verify_with_checkpoint(capsys, "")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_empty_path_error_names_the_option(self, capsys):
        code, out, err = self.verify_with_checkpoint(capsys, "")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "--checkpoint" in err

    @pytest.mark.parametrize(
        "text", ["[]", "[" * 200000 + "]" * 200000], ids=["empty", "nested_200000_deep"]
    )
    def test_file_holding_a_list(self, capsys, tmp_path, text):
        ckpt = tmp_path / "c.json"
        ckpt.write_text(text)
        code, out, err = self.verify_with_checkpoint(capsys, ckpt)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cursor", "7"),
            ("cursor", None),
            ("cursor", [1]),
            ("cursor", True),
            ("cursor", -2),
            ("cursor", 31),
            ("cursor", 1),
            ("counterexamples", "x"),
            ("counterexamples", [1]),
            ("counterexamples", [{"m": None, "kind": "odd_part"}]),
            ("counterexamples", [{"m": "x", "kind": "odd_part"}]),
            ("counterexamples", [{"kind": "odd_part"}]),
            ("counterexamples", [{"m": 32, "kind": "odd_part"}]),
            ("counterexamples", [{"m": 1, "kind": "odd_part"}]),
            ("counterexamples", [{"m": True, "kind": "odd_part"}]),
            ("counterexamples", [{"m": 10, "kind": 3}]),
            ("counterexamples", [{"m": 10}]),
            ("counterexamples", [{"m": 10, "kind": "odd_part", "gcd": [[1]]}]),
        ],
        ids=[
            "cursor_str",
            "cursor_null",
            "cursor_list",
            "cursor_bool",
            "cursor_negative",
            "cursor_past_max",
            "cursor_one",
            "witnesses_str",
            "witness_int",
            "witness_m_null",
            "witness_m_str",
            "witness_m_missing",
            "witness_m_past_cursor",
            "witness_m_below_2",
            "witness_m_bool",
            "witness_kind_int",
            "witness_kind_missing",
            "witness_value_list",
        ],
    )
    def test_malformed_field(self, capsys, tmp_path, field, value):
        ckpt = tmp_path / "c.json"
        assert self.verify_with_checkpoint(capsys, ckpt)[0] == 0
        data = json.loads(ckpt.read_text())
        data[field] = value
        ckpt.write_text(json.dumps(data))
        code, out, err = self.verify_with_checkpoint(capsys, ckpt)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_witness_past_the_cursor_fails_before_the_scan(self, capsys, tmp_path, monkeypatch):
        ckpt = tmp_path / "c.json"
        assert self.verify_with_checkpoint(capsys, ckpt)[0] == 0
        data = json.loads(ckpt.read_text())
        data["cursor"], data["counterexamples"] = 10, [{"m": 20, "kind": "odd_part"}]
        ckpt.write_text(json.dumps(data))

        def no_scan(payload):
            raise AssertionError("the scan ran before the checkpoint was validated")

        monkeypatch.setattr(verify, "_check_gcd_power_of_two", no_scan)
        code, out, err = self.verify_with_checkpoint(capsys, ckpt)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_saved_witness_is_reported(self, capsys, tmp_path):
        ckpt = tmp_path / "c.json"
        assert self.verify_with_checkpoint(capsys, ckpt)[0] == 0
        data = json.loads(ckpt.read_text())
        data["counterexamples"] = [{"m": 10, "kind": "odd_part"}]
        ckpt.write_text(json.dumps(data))
        code, out, err = self.verify_with_checkpoint(capsys, ckpt)
        assert (code, err) == (2, "")
        assert json.loads(out)["counterexamples"] == [{"m": "10", "kind": "odd_part"}]


def test_sigterm_saves_the_checkpoint(capsys, tmp_path, monkeypatch):
    ckpt = tmp_path / "scan.json"
    before = signal.getsignal(signal.SIGTERM)
    check = verify._check_gcd_power_of_two

    def terminated_at_40(payload):
        if payload[0] == 40:
            # without the scan's handler the signal would end the test run
            assert signal.getsignal(signal.SIGTERM) is signal.default_int_handler
            os.kill(os.getpid(), signal.SIGTERM)
        return check(payload)

    monkeypatch.setattr(verify, "_check_gcd_power_of_two", terminated_at_40)
    argv = ["verify", "gcd-power-of-two", "--max", "100", "--workers", "1"]
    assert main(argv + ["--checkpoint", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"interrupted: gcd-power-of-two scan stopped; checkpoint saved to {ckpt}\n"
    )
    assert json.loads(ckpt.read_text())["cursor"] == 38
    assert signal.getsignal(signal.SIGTERM) is before


def test_interrupt_without_checkpoint_exits_cleanly(capsys, monkeypatch):
    def interrupted(payload):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "_check_numerator_coprimality", interrupted)
    assert main(["verify", "numerator-coprimality", "--max", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "interrupted: numerator-coprimality scan stopped\n"


@cache
def _uninterrupted_identity_suite(m_max: int) -> str:
    return verify.verify_identity_suite(m_max).to_json(include_wall_time=False)


def _saved_cursor(ckpt: Path) -> int:
    try:
        return json.loads(ckpt.read_text())["cursor"]
    except FileNotFoundError:
        return 0


def _signal_group_mid_scan(ckpt: Path, signum: int, *argv: str, capture: bool = True) -> tuple:
    """Run ``python *argv`` as its own process group and send it ``signum`` once
    the scan has saved a cursor above 0 to ``ckpt``; returns the ended process
    with its stdout and stderr, read until every process holding them is gone
    (both None without ``capture``, which waits for the leader alone)."""
    src = str(Path(hclat.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    output = subprocess.PIPE if capture else subprocess.DEVNULL
    proc = subprocess.Popen(
        [sys.executable, *argv],
        env=env,
        stdout=output,
        stderr=output,
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while _saved_cursor(ckpt) == 0:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        os.killpg(proc.pid, signum)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc, out, err


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two workers")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_group_signal_with_workers_prints_one_line(tmp_path, signum):
    # a signal to the whole process group, as Ctrl-C in a terminal sends, reaches
    # the pool workers too; only the parent may report it
    ckpt, m_max = tmp_path / "scan.json", 300
    argv = ["verify", "identity-suite", "--max", str(m_max), "--workers", "2"]
    proc, out, err = _signal_group_mid_scan(
        ckpt, signum, "-m", "hclat.cli", *argv, "--checkpoint", str(ckpt)
    )
    assert proc.returncode == 1
    assert out == ""
    assert err == f"interrupted: identity-suite scan stopped; checkpoint saved to {ckpt}\n"
    assert 0 < _saved_cursor(ckpt) < m_max
    resumed = verify.verify_identity_suite(m_max, workers=2, checkpoint_path=ckpt)
    assert resumed.to_json(include_wall_time=False) == _uninterrupted_identity_suite(m_max)


def _live_processes_in_group(pgid: int) -> list[str]:
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process ended meanwhile
            continue
        if int(pgrp) == pgid and state != "Z":
            live.append(stat.parent.name)
    return live


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two workers")
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_group_sigterm_outside_the_cli_ends_the_workers(tmp_path):
    # without the CLI's handler SIGTERM kills the parent outright; workers that
    # ignored it would wait on the pool's call queue forever
    ckpt = tmp_path / "scan.json"
    scan = (
        "from hclat.verify import verify_identity_suite as scan; "
        f"scan(1000, workers=2, checkpoint_path={str(ckpt)!r})"
    )
    proc, _, _ = _signal_group_mid_scan(ckpt, signal.SIGTERM, "-c", scan, capture=False)
    assert proc.returncode == -signal.SIGTERM
    deadline = time.monotonic() + 10
    while _live_processes_in_group(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = _live_processes_in_group(proc.pid)
    for pid in left:
        os.kill(int(pid), signal.SIGKILL)
    assert left == []
