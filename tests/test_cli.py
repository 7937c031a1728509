"""The batch front end: config parsing, commands, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nontrap import cli
from nontrap import escape as esc
from nontrap import flow as fl
from nontrap import geometry as geo
from nontrap import resolvent as rv
from nontrap.errors import ConfigurationError, ConstructionError


def read_bytes_map(outdir: Path):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def _csv_rows(path):
    """The header and data rows of a report CSV, below its stamp."""
    return [ln.split(",") for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


def test_parse_config_roundtrip():
    text = """
    # experiment
    command = flow-scan
    potential = double_bump
    amplitude = 2.0
    separation = 3.0
    delta = 0.1
    h_list = 0.2, 0.1
    flow_samples = 40
    """
    params = cli.parse_config_text(text)
    assert params["command"] == "flow-scan"
    assert params["h_list"] == (0.2, 0.1)
    cfg = cli.effective_config(params)
    assert cfg["potential"] == "double_bump"
    assert cfg["jobs"] == 1


@pytest.mark.parametrize("preset", [None, *sorted(geo.PRESETS)])
def test_config_echo_parses_back_typed_as_defaults(preset):
    """Each key's type is its default's: the echo of the defaults and of
    every preset parses back to the same values with the same types."""
    cfg = cli.effective_config(dict(geo.PRESETS.get(preset, {})))
    echo = cli.config_lines(cfg)
    params = cli.parse_config_text("\n".join(echo))
    assert len(params) == len(echo)
    for key, value in params.items():
        assert value == cfg[key], key
        kind = type(cli.RUN_DEFAULTS.get(key, geo.MODEL_DEFAULTS.get(key)))
        assert type(value) is type(cfg[key]) is kind, key
        if key == "h_list":
            assert all(type(h) is float for h in value)
        else:
            assert kind in (int, float, str), key


def test_library_values_typed_as_defaults():
    """Library params take their defaults' types too: an int key refuses a
    non-integral value, and amplitude 2 is the model amplitude 2.0."""
    for key, value in (("flow_samples", 5.5), ("jobs", float("inf")),
                       ("h_list", (0.2, float("nan"))), ("epsilon", "x")):
        with pytest.raises(ConfigurationError, match=key):
            cli.effective_config({key: value})
    cfg = cli.effective_config({"flow_samples": 5.0, "h_list": [0.2, 1]})
    assert type(cfg["flow_samples"]) is int
    assert cfg["h_list"] == (0.2, 1.0) and type(cfg["h_list"][1]) is float
    as_int, as_float = (cli.effective_config(
        {"potential": "double_bump", "amplitude": a}) for a in (2, 2.0))
    assert type(as_int["amplitude"]) is float
    assert cli.config_hash(as_int) == cli.config_hash(as_float)


def _readme_config_keys():
    """The keys that README's configuration tables name, one per row; the
    row 'verify_x / _interior / _energy' names three."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = text.split("### Configuration schema", 1)[1].split("\n###", 1)[0]
    keys = []
    for line in schema.splitlines():
        cell = line.split("|")[1].strip() if line.startswith("|") else ""
        if cell in ("", "key") or set(cell) == {"-"}:
            continue
        first, *rest = cell.split(" / ")
        keys += [first] + [first.rsplit("_", 1)[0] + r for r in rest]
    return keys


def test_readme_tables_name_every_key_once():
    """README's model and run tables name every config key, and no other,
    so a removed key cannot linger in the docs."""
    keys = _readme_config_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cli.RUN_DEFAULTS) | set(geo.MODEL_DEFAULTS)


def test_parse_config_diagnostics():
    with pytest.raises(ConfigurationError, match=":2"):
        cli.parse_config_text("command = flow-scan\nnot a kv line")
    with pytest.raises(ConfigurationError, match="unknown key"):
        cli.parse_config_text("frobnicate = 1")
    with pytest.raises(ConfigurationError, match="duplicate"):
        cli.parse_config_text("jobs = 1\njobs = 2")
    with pytest.raises(ConfigurationError, match="range"):
        cli.effective_config({"epsilon": 0.9})
    with pytest.raises(ConfigurationError, match="command"):
        cli.effective_config({"command": "dance"})


def test_malformed_config_no_partial_outputs(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("command = flow-scan\npotential = nosuch\n")
    out = tmp_path / "out"
    code = cli.main(["--config", str(conf), "--out", str(out)])
    assert code != 0
    assert not out.exists()


def test_unknown_preset_rejected(tmp_path):
    code = cli.main(["--preset", "nosuch", "--out", str(tmp_path / "o")])
    assert code == 2


def test_dimension_2_sweep_rejected_before_output(tmp_path):
    """The removed model and run keys are unknown keys on every command,
    whatever their value."""
    for line in ("dimension = 2", "boundary_metric = one",
                 "metric_amplitude = 0.0", "metric_mode = 2",
                 "t_rule = cap", "seed_spacing = 1.0",
                 "dump_trajectories = 0", "r_escape = 1.5",
                 "r_escape = 40.0"):
        conf = tmp_path / f"{line.replace(' ', '')}.conf"
        conf.write_text(f"{line}\nflow_samples = 5\nscan_t_max = 10\n")
        for command in cli.COMMANDS:
            out = tmp_path / f"{conf.stem}-{command}"
            code = cli.main(["--preset", "zero", command, "--config",
                             str(conf), "--out", str(out)])
            assert code == 2, (line, command)
            assert not out.exists()


_UNRUNNABLE = [(line, ("flow-scan",)) for line in (
    "scan_t_max = 0", "scan_t_max = -5", "amplitude = nan",
    "lambda2 = inf", "h_list = 0.2, inf",
    # shape keys the zero potential never reads
    "amplitude = 1.0", "separation = 2.0",
    # removed keys: unknown whatever their value
    "seed_spacing = 0", "dump_trajectories = -1", "r_escape = 0",
)] + [
    # sweep grids that cannot resolve the finest h (< 10 points per
    # wavelength); only the sweeping commands use them
    (line, ("resolvent-sweep", "full-report"))
    for line in ("h_list = 0.2, 0.001", "grid_exponent = 8",
                 # a slope needs two distinct h
                 "h_list = 0.1", "h_list = 0.1, 0.1")
]


@pytest.mark.parametrize("line, commands", _UNRUNNABLE,
                         ids=[line.replace(" ", "") for line, _ in _UNRUNNABLE])
def test_unrunnable_values_rejected_before_output(tmp_path, line, commands):
    conf = tmp_path / "c.conf"
    conf.write_text(line + "\n")
    for command in commands:
        out = tmp_path / command
        code = cli.main(["--preset", "zero", command, "--config", str(conf),
                         "--out", str(out)])
        assert code == 2, command
        assert not out.exists(), command


@pytest.mark.parametrize("line, message", [
    ("potential = nope", "unknown potential preset 'nope'; expected one of "
     "('zero', 'longrange_pow', 'double_bump', 'well')"),
    ("separation = 2.0", "model key 'separation' = 2.0 is not read by "
     "potential 'longrange_pow', which reads amplitude, gamma"),
])
def test_model_errors_exit_2_with_their_message(tmp_path, capsys, line,
                                                message):
    """An unknown potential and a shape key its potential never reads exit
    2 with one line naming them, before anything is written."""
    conf = tmp_path / "c.conf"
    conf.write_text(line + "\n")
    out = tmp_path / "o"
    code = cli.main(["--preset", "longrange_pow", "flow-scan", "--config",
                     str(conf), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("make, message", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"lambda2 = 1.0 # \xe9t\xe9\n"),
     "can't decode byte 0xe9 in position 16"),
], ids=["missing", "directory", "latin-1"])
def test_unreadable_config_rejected_before_output(tmp_path, capsys, make,
                                                  message):
    """A config file that cannot be read exits 2 with one line naming it,
    before anything is written."""
    conf = tmp_path / "c.conf"
    make(conf)
    out = tmp_path / "o"
    code = cli.main(["--preset", "zero", "flow-scan", "--config", str(conf),
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read {conf}: ")
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_override_validated_before_output(tmp_path, jobs):
    """--jobs goes through the same range check as the config key."""
    out = tmp_path / "o"
    code = cli.main(["--preset", "zero", "flow-scan", "--jobs", jobs,
                     "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_library_config_unknown_key_rejected_before_output(tmp_path):
    """Keys reach cli.run from library callers without parse_config_text;
    they are checked there too."""
    out = tmp_path / "o"
    with pytest.raises(ConfigurationError, match="unknown key"):
        cli.run({"dimension": 2, "command": "flow-scan"}, out_override=str(out))
    assert not out.exists()


def test_escape_verify_well_certified(tmp_path):
    """The well is non-trapping: at the default scan size its verdict has no
    witness and the escape certificate passes."""
    conf = tmp_path / "c.conf"
    conf.write_text("verify_x = 60\nverify_interior = 10\nverify_energy = 4\n")
    out = tmp_path / "o"
    code = cli.main(["--preset", "well", "escape-verify", "--config",
                     str(conf), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["escape_certificate"]["passed"]


def test_failed_certificate_lists_witnesses(tmp_path, monkeypatch):
    """A failed certificate exits 1 and writes its witnesses as (z1, zeta1)
    rows, the columns of witnesses.csv."""
    witnesses = [np.array([2.5, -0.75]), np.array([-3.0, 1.0])]

    def failing(e, **kwargs):
        return esc.VerifyReport(c_prime=-1.0, c_dprime=0.5, b_floor=0.1,
                                n_points=10, witnesses=witnesses)

    monkeypatch.setattr(esc, "verify_proposition", failing)
    out = tmp_path / "o"
    assert cli.main(["--preset", "zero", "escape-verify",
                     "--out", str(out)]) == 1
    assert _csv_rows(out / "verify_witnesses.csv") == [
        ["z1", "zeta1"], ["2.5", "-0.75"], ["-3.0", "1.0"]]


def test_escape_verify_runs_no_orbit_store(tmp_path, monkeypatch):
    """escape-verify flows no orbit: a batched_flow spy sees no call, its
    report's T_K is dwell_bound's, and its chi line gives dwell_cutoff's
    radii 2/x0 and 4/x0."""
    calls = []
    monkeypatch.setattr(fl, "batched_flow", lambda *a, **k: calls.append(a))
    conf = tmp_path / "c.conf"
    conf.write_text("verify_x = 60\nverify_interior = 10\nverify_energy = 4\n")
    out = tmp_path / "o"
    assert cli.main(["--preset", "longrange_pow", "escape-verify", "--config",
                     str(conf), "--out", str(out)]) == 0
    assert calls == []
    model = geo.preset_model("longrange_pow")
    consts = esc.boundary_constants(model)
    lines = (out / "escape_report.txt").read_text().splitlines()
    assert f"T_K = {esc.dwell_bound(model, consts)!r}" in lines
    assert (f"chi: 1 on |z| <= {2.0 / consts.x0!r}, "
            f"0 on |z| >= {4.0 / consts.x0!r}") in lines
    assert not [ln for ln in lines if ln.startswith(("tubes", "covering"))]


def test_full_report_integrates_no_orbit(tmp_path, monkeypatch):
    """full-report on longrange_pow integrates no orbit: its verdict comes
    from V's critical values, so a batched_flow spy sees no call at all."""
    calls = []
    monkeypatch.setattr(fl, "batched_flow",
                        lambda *a, **k: calls.append(a))
    conf = tmp_path / "c.conf"
    conf.write_text(
        "h_list = 0.2, 0.14, 0.1\ngrid_exponent = 14\nflow_samples = 60\n"
        "verify_x = 60\nverify_interior = 10\nverify_energy = 4\n")
    out = tmp_path / "o"
    assert cli.main(["--preset", "longrange_pow", "full-report", "--config",
                     str(conf), "--out", str(out)]) == 0
    assert calls == []


@pytest.mark.parametrize("command", ["escape-build", "escape-verify",
                                     "resolvent-sweep", "full-report"])
def test_only_flow_scan_runs_the_sampled_scan(tmp_path, monkeypatch, command):
    """Every command but flow-scan takes the exact verdict: none calls
    flow.nontrapping_scan."""
    def scan(*args, **kwargs):
        raise AssertionError(f"{command} ran the sampled scan")

    monkeypatch.setattr(fl, "nontrapping_scan", scan)
    conf = tmp_path / "c.conf"
    conf.write_text(
        "h_list = 0.2, 0.1\ngrid_exponent = 13\nbox_half_length = 100\n"
        "verify_x = 60\nverify_interior = 10\nverify_energy = 4\n")
    assert cli.main(["--preset", "well", command, "--config", str(conf),
                     "--out", str(tmp_path / "o")]) == 0


def test_full_report_flags_the_barrier_top(tmp_path):
    """longrange_pow at amplitude 1.0 has max V = 1 inside the window [0.9,
    1.1], at the unstable equilibrium (0, 0): full-report flags it trapping,
    with that point as its witness, and writes no escape certificate."""
    conf = tmp_path / "c.conf"
    conf.write_text(
        "amplitude = 1.0\nh_list = 0.2, 0.1\ngrid_exponent = 13\n"
        "box_half_length = 100\ncontrast_scan = 5\n")
    out = tmp_path / "o"
    assert cli.main(["--preset", "longrange_pow", "full-report", "--config",
                     str(conf), "--out", str(out)]) == 0
    assert _csv_rows(out / "scan_summary.csv") == [
        ["window_lo", "window_hi", "critical_below", "critical_above",
         "components", "nontrapping"],
        ["0.9", "1.1", "1.0", "nan", "1", "0"]]
    assert _csv_rows(out / "witnesses.csv") == [["z1", "zeta1"],
                                                ["0.0", "0.0"]]
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert checks["flow_scan_completed"]["value"] == 1.0
    assert checks["trapping_flagged"]["passed"]
    assert checks["escape_certificate"]["note"] == "skipped: model is trapping"
    assert not (out / "escape_report.txt").exists()
    assert not (out / "verify.csv").exists()


def test_escape_build_writes_construction_slice(tmp_path):
    """escape-build writes the constants and q_slice.csv but no verify.csv.
    The slice is the construction grid's right end (220 x values, 14
    energies, 2 branches): below the provenance stamp, which names the
    command, it is byte-identical to escape-verify's, and q > 0 on every
    row."""
    conf = tmp_path / "c.conf"
    conf.write_text("verify_x = 60\nverify_interior = 10\nverify_energy = 4\n")
    data = {}
    for command in ("escape-build", "escape-verify"):
        out = tmp_path / command
        assert cli.main(["--preset", "longrange_pow", command, "--config",
                         str(conf), "--out", str(out)]) == 0
        lines = (out / "q_slice.csv").read_bytes().splitlines()
        data[command] = [ln for ln in lines if not ln.startswith(b"#")]
    assert sorted(p.name for p in (tmp_path / "escape-build").iterdir()) == [
        "escape_report.txt", "q_slice.csv", "summary.json"]
    assert data["escape-build"] == data["escape-verify"]
    header, *rows = data["escape-build"]
    assert header == b"x,tau,q,hp_q"
    assert len(rows) == 220 * 14 * 2
    assert all(float(row.split(b",")[2]) > 0.0 for row in rows)


def test_only_package_errors_become_exit_1(tmp_path, monkeypatch):
    def fail_with(exc):
        def command(cfg, rep):
            raise exc
        return command

    args = ["--preset", "zero", "calculus-tests", "--out", str(tmp_path / "o")]
    monkeypatch.setattr(cli, "cmd_calculus_tests",
                        fail_with(ConstructionError("no escape function")))
    assert cli.main(args) == 1
    monkeypatch.setattr(cli, "cmd_calculus_tests",
                        fail_with(KeyError("not a package error")))
    with pytest.raises(KeyError):
        cli.main(args)


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
def test_exit_status_follows_summary(tmp_path, monkeypatch, passed, code):
    """The exit status is 0 exactly when summary.json's all_passed holds."""
    def command(cfg, rep):
        rep.check("always_passes", True)
        rep.check("stub_check", passed)

    monkeypatch.setattr(cli, "cmd_calculus_tests", command)
    out = tmp_path / "o"
    assert cli.main(["--preset", "zero", "calculus-tests",
                     "--out", str(out)]) == code
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is passed


#: the checks calculus-tests records, and full-report does not
_CALCULUS_CHECKS = ("commutator_slope", "commutator_halving",
                    "garding_drift_abs_sin_gauss",
                    "garding_drift_one_minus_gauss", "quantize_identity",
                    "weighted_norm_l2")


def test_calculus_tests_command(tmp_path):
    """calculus-tests writes 4 commutator defects and 4 floors for each of
    the 2 Garding symbols, and all 6 of its checks pass."""
    out = tmp_path / "o"
    assert cli.main(["--preset", "zero", "calculus-tests",
                     "--out", str(out)]) == 0
    lines = [ln for ln in (out / "calculus.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "check,h,value"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == (["commutator_defect"] * 4
                     + ["garding_abs_sin_gauss"] * 4
                     + ["garding_one_minus_gauss"] * 4)
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["checks"]) == sorted(_CALCULUS_CHECKS)
    assert all(c["passed"] for c in summary["checks"].values())


def test_flow_scan_free_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = ["--preset", "zero", "flow-scan", "--config"]
    conf = tmp_path / "c.conf"
    conf.write_text("flow_samples = 60\nscan_t_max = 60\n")
    assert cli.main(base + [str(conf), "--out", str(out1)]) == 0
    assert cli.main(base + [str(conf), "--out", str(out2)]) == 0
    assert read_bytes_map(out1) == read_bytes_map(out2)
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["all_passed"]
    assert summary["checks"]["flow_scan_completed"]["passed"]


def test_flow_scan_trapping_witnesses(tmp_path):
    out = tmp_path / "db"
    conf = tmp_path / "c.conf"
    conf.write_text("flow_samples = 40\nscan_t_max = 40\n")
    code = cli.main(["--preset", "double_bump", "flow-scan",
                     "--config", str(conf), "--out", str(out)])
    assert code == 0
    lines = (out / "witnesses.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) > 1  # header plus at least one witness
    for row in data[1:]:
        for value in row.split(","):
            float(value)  # plain repr, not 'np.float64(...)'


def test_cli_import_loads_only_scipy_linalg():
    """The package needs numpy and scipy.linalg alone: importing the CLI
    loads none of scipy's heavier subpackages."""
    heavy = ("scipy.signal", "scipy.integrate", "scipy.stats", "scipy.special",
             "scipy.sparse", "scipy.optimize")
    code = ("import sys, nontrap.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == ""


def test_provenance_stamps(tmp_path):
    out = tmp_path / "o"
    conf = tmp_path / "c.conf"
    conf.write_text("flow_samples = 30\nscan_t_max = 40\n")
    cli.main(["--preset", "zero", "flow-scan", "--config", str(conf),
              "--out", str(out)])
    text = (out / "scan_summary.csv").read_text()
    assert "# nontrap" in text
    assert "# config-sha256:" in text
    assert "# flow_samples = 30" in text  # config echoed into the output


@pytest.fixture(scope="module")
def double_bump_window_row():
    """trapping_row.csv's data row for the sweep below, from a direct
    window_sup_norm call (absorbing profile, t = 0)."""
    sup, arg = rv.window_sup_norm(geo.preset_model("double_bump"), 0.1,
                                  s=0.7, n_scan=5, L=100.0, N=2**13)
    return [repr(0.1), repr(sup), repr(arg)]


def test_resolvent_sweep_trapping_mode(tmp_path, double_bump_window_row):
    """A trapping model is flagged, its window sup row is the absorbing
    profile's at t = 0, and so is every sweep cell."""
    out = tmp_path / "db"
    conf = tmp_path / "c.conf"
    conf.write_text(
        "h_list = 0.2, 0.1\ngrid_exponent = 13\nbox_half_length = 100\n"
        "flow_samples = 40\nscan_t_max = 40\ncontrast_scan = 5\n"
    )
    code = cli.main(["--preset", "double_bump", "resolvent-sweep",
                     "--config", str(conf), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["trapping_flagged"]["passed"]
    assert "skipped" in summary["checks"]["trapping_flagged"]["note"]
    header, *rows = _csv_rows(out / "trapping_row.csv")
    assert header == ["h", "window_sup_norm", "argmax_lambda2"]
    assert rows == [double_bump_window_row]
    header, *rows = _csv_rows(out / "sweep.csv")
    assert len(rows) == 6
    assert {(row[header.index("t")], row[header.index("mode")])
            for row in rows} == {("0.0", "cap")}


def test_resolvent_sweep_free_checks(tmp_path):
    out = tmp_path / "z"
    conf = tmp_path / "c.conf"
    conf.write_text(
        "h_list = 0.2, 0.14, 0.1\ngrid_exponent = 14\n"
        "flow_samples = 60\nscan_t_max = 60\n"
    )
    code = cli.main(["--preset", "zero", "resolvent-sweep",
                     "--config", str(conf), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["sweep_slope"]["passed"]
    assert summary["checks"]["sweep_uniformity"]["passed"]
    assert summary["checks"]["oracle_agreement"]["passed"]


def test_full_report_wide_window_is_not_flagged_trapping(tmp_path, capsys):
    """The free line with the window [0.1, 1.9] is non-trapping: flow-scan
    finds no witness, exact or sampled.  So full-report goes on to the
    escape stage, which cannot run at delta >= 0.1875 lambda2, and exits 2
    before writing anything, instead of flagging the model trapping."""
    conf = tmp_path / "c.conf"
    conf.write_text("delta = 0.9\nflow_samples = 60\n")
    scan = tmp_path / "scan"
    assert cli.main(["--preset", "zero", "flow-scan", "--config", str(conf),
                     "--out", str(scan)]) == 0
    header, row = _csv_rows(scan / "scan_summary.csv")
    assert row[header.index("nontrapping")] == "1"
    header, row = _csv_rows(scan / "flow_scan.csv")
    assert row[header.index("trapped")] == "0"
    capsys.readouterr()
    out = tmp_path / "wide"
    code = cli.main(["--preset", "zero", "full-report", "--config", str(conf),
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: delta = 0.9 >= 0.1875 lambda2 = 0.1875: the "
        "escape function's band bound c1 is not positive; reduce delta\n")
    assert not out.exists()


@pytest.mark.parametrize("preset, lines, message", [
    ("longrange_pow", "delta = 0.2\n",
     "delta = 0.2 >= 0.1875 lambda2 = 0.1875"),
    ("longrange_pow", "gamma = 0.35\n",
     "collar width x0 = 0.0006: the incoming collar starts at "
     "|z| = 2/x0 = 3331.06, beyond the phase-space grids' reach |z| = 1000"),
], ids=["band_bound", "collar_beyond_grids"])
def test_unconstructible_escape_rejected_before_output(tmp_path, capsys,
                                                       preset, lines, message):
    """A model whose escape stage cannot run exits 2 with the value in the
    message and nothing written: escape-build and escape-verify from the
    config alone, full-report once its scan finds no witness.  flow-scan,
    which builds no escape function, still runs."""
    conf = tmp_path / "c.conf"
    conf.write_text(lines + "flow_samples = 20\n")
    for command in ("escape-build", "escape-verify", "full-report"):
        out = tmp_path / command
        code = cli.main(["--preset", preset, command, "--config", str(conf),
                         "--out", str(out)])
        assert code == 2, command
        assert message in capsys.readouterr().err, command
        assert not out.exists(), command
    assert cli.main(["--preset", preset, "flow-scan", "--config", str(conf),
                     "--out", str(tmp_path / "scan")]) == 0


def test_escape_radius_beyond_scan_reach_rejected(tmp_path, capsys):
    """longrange_pow at amplitude -1, gamma 0.005 has an escape radius of
    2.3e69, which no scan orbit reaches: flow-scan, the one command that
    runs the sampled scan, exits 2 with the radius and scan_t_max in the
    message.  The model is non-trapping (zeta^2 = E - V > 0 everywhere), and
    the other commands take the exact verdict: resolvent-sweep runs and does
    not flag it, and escape-build exits 2 on its collar, which starts beyond
    the grids.  On the free line (radius 40, lowest speed 2 sqrt(0.9)) the
    bound falls between scan_t_max 21 and 22."""
    conf = tmp_path / "c.conf"
    conf.write_text("amplitude = -1.0\ngamma = 0.005\nflow_samples = 20\n"
                    "h_list = 0.2, 0.1\ngrid_exponent = 13\n"
                    "box_half_length = 100\n")
    radius = geo.preset_model("longrange_pow", amplitude=-1.0,
                              gamma=0.005).escape_radius
    assert 2e69 < radius < 3e69
    args = ["--preset", "longrange_pow", "--config", str(conf), "--out"]
    out = tmp_path / "flow-scan"
    assert cli.main(["flow-scan"] + args + [str(out)]) == 2
    err = capsys.readouterr().err
    assert f"escape radius {radius:.6g} takes" in err
    assert "scan_t_max = 150.0" in err
    assert not out.exists()
    out = tmp_path / "escape-build"
    assert cli.main(["escape-build"] + args + [str(out)]) == 2
    assert "the incoming collar starts at |z| = 2/x0" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "resolvent-sweep"
    assert cli.main(["resolvent-sweep"] + args + [str(out)]) == 0
    header, row = _csv_rows(out / "sweep_summary.csv")
    assert row[header.index("trapping_flagged")] == "0"
    for t_max, code in (("21", 2), ("22", 0)):
        conf.write_text(f"scan_t_max = {t_max}\nflow_samples = 20\n")
        assert cli.main(["--preset", "zero", "flow-scan", "--config",
                         str(conf), "--out", str(tmp_path / t_max)]) == code


def test_escape_build_slow_decay_certified(tmp_path):
    """longrange_pow at gamma = 0.5 (collar from |z| = 2/x0 = 452) builds
    its escape function: the flow average needs no incoming time."""
    conf = tmp_path / "c.conf"
    conf.write_text("gamma = 0.5\nflow_samples = 60\n")
    out = tmp_path / "o"
    assert cli.main(["--preset", "longrange_pow", "escape-build", "--config",
                     str(conf), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["escape_assembled"]["passed"]


def test_oracle_h_ref_follows_the_sweep_not_the_list_order(tmp_path):
    """The zero oracle's h is the middle of the sweep's distinct h, largest
    first, whatever order h_list gives them in."""
    h_list = (0.1, 0.14, 0.2, 0.28)
    refs = []
    for order in (h_list, h_list[::-1]):
        out = tmp_path / f"o{len(refs)}"
        cli.run({"potential": "zero", "command": "resolvent-sweep",
                 "h_list": order, "grid_exponent": 13,
                 "box_half_length": 100.0, "flow_samples": 20,
                 "scan_t_max": 40.0}, out_override=str(out))
        header, row = _csv_rows(out / "oracle.csv")
        refs.append(float(row[header.index("h")]))
    assert refs == [0.14, 0.14]


def test_full_report_free_reduced(tmp_path):
    """full-report on the free preset: all checks pass, exit 0, and the
    model-independent calculus checks are not run."""
    out = tmp_path / "full"
    conf = tmp_path / "c.conf"
    conf.write_text(
        "h_list = 0.2, 0.14, 0.1\ngrid_exponent = 14\n"
        "flow_samples = 60\nscan_t_max = 60\n"
        "verify_x = 150\nverify_interior = 24\nverify_energy = 10\n"
    )
    code = cli.main(["--preset", "zero", "full-report",
                     "--config", str(conf), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"]
    for name in ("flow_scan_completed", "escape_certificate",
                 "sweep_slope", "oracle_agreement"):
        assert summary["checks"][name]["passed"], name
    assert not set(_CALCULUS_CHECKS) & set(summary["checks"])
    assert not (out / "calculus.csv").exists()
    assert (out / "q_slice.csv").exists()
    # the cascade line is strict JSON: no infinite constant is reported
    cascade, = [ln for ln in (out / "escape_report.txt").read_text()
                .splitlines() if ln.startswith("cascade: ")]

    def reject(name):
        raise ValueError(f"non-finite {name} in the cascade line")

    assert json.loads(cascade[len("cascade: "):], parse_constant=reject)
