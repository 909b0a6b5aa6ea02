import json

import pytest

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
        code, _ = run_cli(capsys, "plumbing", "--m", "3", "--ord", "2")
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

    def test_workers_below_one_is_exit_1(self, capsys):
        assert main(["verify", "gcd-power-of-two", "--max", "10", "--workers", "0"]) == 1
