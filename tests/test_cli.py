import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dualavg.cli import main, report_command, run_command
from dualavg.config import parse_config, parse_seed_spec, run_seed
from dualavg.errors import ConfigError

BASE_CONFIG = """\
# minimal full-information run
domain.dim = 1
grid.n = 64
algorithm = da
stream.kind = trig_mixture
stream.seed = 3
channel.kind = exact
schedule.eta_exponent = 0.5
horizon = 150
seeds = 0..2
checkpoint.start = 10
checkpoint.ratio = 1.6
"""

BDA_CONFIG = """\
domain.dim = 1
grid.n = 64
algorithm = bda
stream.payoff = true
channel.kind = bandit
horizon = 120
seeds = 1,4
checkpoint.start = 10
checkpoint.ratio = 2.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_all(paths):
    return {os.path.basename(p): open(p, "rb").read() for p in paths}


def test_parse_seed_spec():
    assert parse_seed_spec("0..3") == [0, 1, 2, 3]
    assert parse_seed_spec("5,2,9") == [5, 2, 9]
    with pytest.raises(ValueError):
        parse_seed_spec("7..3")


def test_parse_config_roundtrip():
    cfg = parse_config(BASE_CONFIG)
    assert cfg.algorithm == "da"
    assert cfg.grid_n == 64
    assert cfg.seeds == [0, 1, 2]
    assert cfg.checkpoint_ratio == 1.6


def test_unknown_key_is_hard_error_with_line():
    bad = BASE_CONFIG + "stream.knid = trig_mixture\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad, source="conf.txt")
    assert "conf.txt:13" in str(err.value)
    assert "stream.knid" in str(err.value)


def test_malformed_and_duplicate_lines():
    with pytest.raises(ConfigError) as err:
        parse_config("horizon 100\n")
    assert ":1" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("horizon = 100\nhorizon = 200\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("horizon = ten\n")


def test_semantic_validation():
    with pytest.raises(ConfigError):
        parse_config("algorithm = bda\nhorizon = 10\n")  # payoff convention missing
    with pytest.raises(ConfigError):
        parse_config("algorithm = da\nchannel.kind = bandit\nhorizon = 10\n")
    with pytest.raises(ConfigError):
        parse_config("stream.kind = drifting\nhorizon = 10\n")  # no drift rate
    with pytest.raises(ConfigError):
        parse_config("horizon = 0\n")


@pytest.mark.parametrize("line", [
    "schedule.eps_coef = -0.5",
    "schedule.eps_coef = 1.5",
    "schedule.delta_coef = -1",
    "schedule.eta_coef = 0",
    "schedule.eps_exponent = -0.25",
    "channel.noise_scale = -1",
    "channel.bias_scale = -0.1",
    "checkpoint.start = 0",
    "checkpoint.ratio = nan",
    "channel.bias_decay = -1",
    "stream.terms = 0",
    "grid.n = 0",
    "exp3.arms = 0",
    "seeds = -1",
    "seeds = 1,1,2",
    "stream.seed = -1",
    "domain.lower = 1\ndomain.upper = 0",
    "domain.lower = nan",
    "regularizer.family = tsallis",
    "regularizer.gamma = 2\nregularizer.family = tsallis",
    "regularizer.family = negentropy\nregularizer.gamma = 0.5",
    "stream.drift_rate = nan",
    "channel.noise_scale = inf",
    "schedule.eta_coef = inf",
    "schedule.eta_exponent = inf",
])
def test_out_of_range_values_rejected_at_parse(line):
    # A case of several lines names the key of its first line in the error.
    key = line.split(" = ")[0]
    kept = [ln for ln in BDA_CONFIG.splitlines() if not ln.startswith(key + " ")]
    text = "\n".join(kept + [line]) + "\n"
    with pytest.raises(ConfigError, match=rf"^exp\.cfg: {re.escape(key)} must"):
        parse_config(text, source="exp.cfg")


def test_finite_sum_stream_kind_rejected_at_parse():
    # Finite-sum streams carry arbitrary components and are built in code only.
    with pytest.raises(ConfigError, match=r"^exp\.cfg: stream\.kind must be one of"):
        parse_config("stream.kind = finite_sum\nhorizon = 10\n", source="exp.cfg")


def test_run_single_round_single_seed(tmp_path):
    cfg = write(
        tmp_path,
        "one.cfg",
        "grid.n = 32\nhorizon = 1\nseeds = 0\ncheckpoint.start = 1\n",
    )
    files = run_command(cfg, out=str(tmp_path / "out"))
    seed_csv = [f for f in files if "seed0" in f][0]
    lines = open(seed_csv).read().strip().splitlines()
    assert lines[0] == "t,expected_regret,realized_regret,dynamic_regret"
    assert len(lines) == 2  # header + the single t=1 checkpoint
    assert lines[1].startswith("1,")


def test_run_byte_identical_reruns(tmp_path):
    cfg = write(tmp_path, "base.cfg", BASE_CONFIG)
    files1 = run_command(cfg, out=str(tmp_path / "a"))
    files2 = run_command(cfg, out=str(tmp_path / "b"))
    assert read_all(files1) == read_all(files2)


DA_FOUR_SEEDS = BASE_CONFIG.replace("seeds = 0..2", "seeds = 0..3")

EXP3_FOUR_SEEDS = """\
domain.dim = 1
grid.n = 64
algorithm = exp3_grid
exp3.arms = 8
stream.payoff = true
channel.kind = bandit
horizon = 120
seeds = 0..3
checkpoint.start = 10
checkpoint.ratio = 2.0
"""

THREAD_INVARIANCE_CONFIGS = {
    "bda": BDA_CONFIG,
    "exp3_grid": EXP3_FOUR_SEEDS,
    "uniform": EXP3_FOUR_SEEDS.replace("algorithm = exp3_grid", "algorithm = uniform"),
    "da_exact": DA_FOUR_SEEDS,
    "da_unbiased": DA_FOUR_SEEDS.replace(
        "channel.kind = exact", "channel.kind = unbiased\nchannel.noise_scale = 0.5"),
}


def test_run_thread_count_invariance(tmp_path):
    # Workers run contiguous seed blocks: 3 threads split 4 seeds unevenly, and
    # 5 threads leave more workers than seeds.
    for name, text in THREAD_INVARIANCE_CONFIGS.items():
        cfg = write(tmp_path, f"{name}.cfg", text)
        serial = read_all(run_command(cfg, out=str(tmp_path / name / "t1"), threads=1))
        assert len(serial) == len(parse_config(text).seeds) + 1
        for threads in (2, 3, 5):
            parallel = run_command(cfg, out=str(tmp_path / name / f"t{threads}"),
                                   threads=threads)
            assert read_all(parallel) == serial, (name, threads)


FINE_BURG_CONFIG = """\
domain.dim = 2
grid.n = 256
algorithm = da
regularizer.family = burg
channel.kind = biased
channel.noise_scale = 0.5
channel.bias_scale = 0.5
channel.bias_decay = 0.5
horizon = 8
seeds = 0
"""

_HASH_EXPECTED = """\
import hashlib, sys
from dualavg.config import parse_config, run_seed
trace = run_seed(parse_config(sys.stdin.read()), 0)
print(hashlib.sha256(trace.expected.tobytes()).hexdigest())
"""


def test_outputs_independent_of_blas_threads():
    # 65536 cells: large enough that an unblocked BLAS dot product would be split
    # across threads.  The thread count is set only in the children's environment.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _HASH_EXPECTED], input=FINE_BURG_CONFIG,
                             env=env, capture_output=True, text=True, check=True)
        hashes.append(out.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]


def test_run_uniform_baseline_from_config(tmp_path):
    cfg = write(
        tmp_path,
        "uni.cfg",
        "grid.n = 32\nalgorithm = uniform\nstream.payoff = true\n"
        "horizon = 50\nseeds = 0\ncheckpoint.start = 10\n",
    )
    files = run_command(cfg, out=str(tmp_path / "u"))
    assert any("uniform_seed0.csv" in f for f in files)


def test_run_seed_override(tmp_path):
    cfg = write(tmp_path, "base.cfg", BASE_CONFIG)
    files = run_command(cfg, seeds="7..8", out=str(tmp_path / "o"))
    names = {os.path.basename(f) for f in files}
    assert names == {"da_seed7.csv", "da_seed8.csv", "summary.csv"}


def test_cli_main_and_errors(tmp_path, capsys):
    cfg = write(tmp_path, "base.cfg", BASE_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path / "m")]) == 0
    out = capsys.readouterr().out
    assert "summary.csv" in out
    bad = write(tmp_path, "bad.cfg", "nonsense = 1\n")
    assert main(["run", bad]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_kernel_radius_floor_rounds_counted_and_warned(tmp_path, capsys):
    # d = 2 on 16 x 16 cells: the default radius sqrt(2)/4 * t^(-1/5) falls
    # below twice the cell diameter after about 32 rounds.
    text = BDA_CONFIG.replace("domain.dim = 1\ngrid.n = 64", "domain.dim = 2\ngrid.n = 16")
    text = text.replace("horizon = 120\nseeds = 1,4", "horizon = 3000\nseeds = 0")
    cfg_path = write(tmp_path, "floor.cfg", text)
    cfg = parse_config(text)
    trace = run_seed(cfg, 0)
    floor = 2.0 * math.sqrt(2.0) / 16
    radius = math.sqrt(2.0) / 4
    expected = sum(1 for t in range(1, 3001) if radius * t ** -0.2 < floor)
    assert expected > 2900
    assert trace.extras["delta_floor_rounds"] == expected
    run_command(cfg_path, out=str(tmp_path / "f"))
    err = capsys.readouterr().err
    assert f"warning: kernel radius floor (2x cell diameter) active on {expected} round(s)" in err


def test_report_passthrough_and_bound(tmp_path, capsys):
    cfg = write(tmp_path, "bda.cfg", BDA_CONFIG)
    run_command(cfg, out=str(tmp_path / "r1"))
    summary = str(tmp_path / "r1" / "summary.csv")
    rows = report_command([summary], dim=1)
    capsys.readouterr()
    t0, mean0 = rows[0][0], rows[0][1]
    assert rows[0][-1] == pytest.approx(mean0)  # bound anchored at first checkpoint
    expo = 3.0 / 4.0
    assert rows[-1][-1] == pytest.approx(mean0 * (rows[-1][0] / t0) ** expo)


def test_report_bound_uses_full_information_rate_for_da(tmp_path, capsys):
    lines = ["algorithm,t,mean_regret,std_regret,slope"]
    lines += [f"da,{t},{3.0 * t ** 0.5!r},0.0," for t in (10, 40, 160, 640)]
    path = tmp_path / "summary.csv"
    path.write_text("\n".join(lines) + "\n")
    rows = report_command([str(path)], dim=2)
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[-1] == "bound"
    for row in rows:
        assert row[-1] == pytest.approx(3.0 * row[0] ** 0.5)  # rate 1/2, not (d+2)/(d+3)


def test_slope_fit_failure_warns_and_leaves_cell_empty(tmp_path, capsys):
    # Checkpoints 10, 16, 26, 41, 66, 105, 150 span 1.18 decades: too short to fit.
    cfg = write(tmp_path, "base.cfg", BASE_CONFIG)
    files = run_command(cfg, out=str(tmp_path / "w"))
    err = capsys.readouterr().err
    assert "warning: slope fit skipped: checkpoints span only 1.18 decades" in err
    summary = [f for f in files if f.endswith("summary.csv")][0]
    rows = open(summary).read().splitlines()
    assert all(row.endswith(",") for row in rows[1:])  # empty slope cell
    report_command([summary])
    assert "warning: slope fit skipped" in capsys.readouterr().err


def test_report_identical_data_zero_diff(tmp_path, capsys):
    cfg = write(tmp_path, "base.cfg", BASE_CONFIG)
    run_command(cfg, out=str(tmp_path / "r1"))
    summary = str(tmp_path / "r1" / "summary.csv")
    rows = report_command([summary, summary], dim=1)
    capsys.readouterr()
    header_diff_col = 3  # t, mean, mean, diff, slopes..., bound
    for row in rows:
        assert row[header_diff_col] == 0.0


def test_report_mismatched_checkpoints(tmp_path, capsys):
    cfg1 = write(tmp_path, "a.cfg", BASE_CONFIG)
    cfg2 = write(tmp_path, "b.cfg", BASE_CONFIG.replace("horizon = 150", "horizon = 90"))
    run_command(cfg1, out=str(tmp_path / "ra"))
    run_command(cfg2, out=str(tmp_path / "rb"))
    with pytest.raises(ConfigError):
        report_command(
            [str(tmp_path / "ra" / "summary.csv"), str(tmp_path / "rb" / "summary.csv")]
        )


def test_report_slope_column_synthetic(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ts = np.unique(np.geomspace(100, 10**5, 14).astype(int))
    lines = ["algorithm,t,mean_regret,std_regret,slope"]
    for t in ts:
        value = float(2.0 * t**0.75 * (1 + 0.01 * rng.normal()))
        lines.append(f"synthetic,{t},{value!r},0.0,")
    path = tmp_path / "summary.csv"
    path.write_text("\n".join(lines) + "\n")
    rows = report_command([str(path)], dim=1, out=str(tmp_path / "rep.csv"))
    capsys.readouterr()
    slope = float(rows[0][2])  # t, mean, slope, bound
    assert slope == pytest.approx(0.75, abs=0.02)
    assert os.path.exists(tmp_path / "rep.csv")
